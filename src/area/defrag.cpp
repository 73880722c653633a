#include "relogic/area/defrag.hpp"

#include <algorithm>

namespace relogic::area {

namespace {

/// Best single move by the greedy criterion — the move that most enlarges
/// the largest free rectangle; `prefer_small_victims` selects the
/// equal-gain tie-break. Shape-independent: callers decide when to stop.
std::optional<Move> best_move(AreaManager& scratch, const DefragOptions& opt,
                              bool prefer_small_victims) {
  // Candidate destinations: bottom-left and best-fit placements of each
  // region's shape in the remaining free space (non-overlapping with its
  // current rect, so plans execute move-by-move on the fabric). All are
  // found before any trial move, so they share one free-space summary.
  std::vector<Move> candidates;
  for (const Region& r : scratch.regions()) {
    for (PlacePolicy policy :
         {PlacePolicy::kBottomLeft, PlacePolicy::kBestFit}) {
      const auto dest =
          scratch.find_free_rect(r.rect.height, r.rect.width, policy);
      if (!dest || *dest == r.rect) continue;
      candidates.push_back(Move{r.id, r.rect, *dest});
    }
  }

  std::optional<Move> best;
  long best_gain = -1;
  long best_dist = 0;
  long best_area = 0;
  for (const Move& c : candidates) {
    // Score by trial move + rollback (cheaper than copying the whole
    // manager per candidate; the rollback destination is the region's
    // own just-vacated rect, so both moves are always legal).
    scratch.move(c.region, c.to);
    const long gain = scratch.largest_free_rect().area();
    scratch.move(c.region, c.from);
    const long dist =
        std::abs(c.to.row - c.from.row) + std::abs(c.to.col - c.from.col);
    // Relocation cost grows with the moved area (one procedure per
    // cell), so by default prefer small victims on equal gain; the
    // alternate pass prefers large ones (sometimes the small-victim
    // move blocks the only escape of a large region).
    const long area_penalty = c.from.area();
    bool better = false;
    if (!best) {
      better = true;
    } else if (gain != best_gain) {
      better = gain > best_gain;
    } else if (area_penalty != best_area) {
      better = prefer_small_victims ? area_penalty < best_area
                                    : area_penalty > best_area;
    } else if (opt.prefer_near) {
      better = dist < best_dist;
    }
    if (better) {
      best = c;
      best_gain = gain;
      best_dist = dist;
      best_area = area_penalty;
    }
  }
  return best;
}

}  // namespace

RequestPlanner::Sequence::Sequence(const AreaManager& mgr, bool prefer_small)
    : scratch(mgr), prefer_small_victims(prefer_small) {
  fit.push_back(scratch.free_width_profile());
}

RequestPlanner::RequestPlanner(const AreaManager& mgr, DefragOptions opt)
    : mgr_(&mgr), opt_(opt), small_victims_(mgr, /*prefer_small=*/true) {}

std::optional<DefragPlan> RequestPlanner::query(Sequence& seq, int h,
                                                int w) const {
  if (h > mgr_->rows() || w > mgr_->cols()) return std::nullopt;
  std::size_t k = 0;
  while (true) {
    if (k == seq.fit.size()) {
      // Extend the sequence by one move — exactly the move the per-shape
      // greedy pass would have taken next.
      if (seq.exhausted ||
          static_cast<int>(seq.moves.size()) >= opt_.max_moves)
        return std::nullopt;
      const auto mv = best_move(seq.scratch, opt_, seq.prefer_small_victims);
      if (!mv) {
        seq.exhausted = true;
        return std::nullopt;
      }
      seq.scratch.move(mv->region, mv->to);
      seq.moves.push_back(*mv);
      seq.fit.push_back(seq.scratch.free_width_profile());
    }
    if (seq.fit[k][static_cast<std::size_t>(h - 1)] >= w) break;
    ++k;
  }

  DefragPlan plan;
  plan.moves.assign(seq.moves.begin(),
                    seq.moves.begin() + static_cast<std::ptrdiff_t>(k));
  std::optional<ClbRect> slot;
  if (k == seq.moves.size()) {
    // Satisfied at the sequence tip: scratch is already the post-move state.
    slot = seq.scratch.find_free_rect(h, w, PlacePolicy::kBottomLeft);
  } else {
    AreaManager replay = *mgr_;
    for (const Move& m : plan.moves) replay.move(m.region, m.to);
    slot = replay.find_free_rect(h, w, PlacePolicy::kBottomLeft);
  }
  RELOGIC_CHECK(slot.has_value());
  plan.request_slot = *slot;
  return plan;
}

std::optional<DefragPlan> RequestPlanner::plan(int h, int w) const {
  RELOGIC_CHECK(h >= 1 && w >= 1);
  if (mgr_->free_clbs() < h * w) return std::nullopt;

  // Greedy with the cheap tie-break first, the alternate second, full
  // bottom-left repacking as the last resort (still bounded by max_moves).
  if (auto plan = query(small_victims_, h, w)) return plan;
  if (!large_victims_) large_victims_.emplace(*mgr_, /*prefer_small=*/false);
  if (auto plan = query(*large_victims_, h, w)) return plan;
  auto full = plan_full_compaction(*mgr_, {{h, w}});
  if (full && static_cast<int>(full->moves.size()) <= opt_.max_moves)
    return full;
  return std::nullopt;
}

std::optional<DefragPlan> plan_for_request(const AreaManager& mgr, int h,
                                           int w, const DefragOptions& opt) {
  return RequestPlanner(mgr, opt).plan(h, w);
}

std::optional<DefragPlan> plan_full_compaction(
    const AreaManager& mgr, std::optional<std::pair<int, int>> pending) {
  // Pack everything into a fresh grid: pending request first (it must end
  // up placed), then regions by area descending. Faulty CLBs masked in the
  // source keep their mask so no repacking target ever lands on one.
  AreaManager packed(mgr.rows(), mgr.cols());
  for (int r = 0; r < mgr.rows(); ++r) {
    for (int c = 0; c < mgr.cols(); ++c) {
      if (mgr.masked({r, c})) packed.mask_faulty({r, c});
    }
  }
  DefragPlan plan;

  if (pending) {
    const auto slot = packed.find_free_rect(pending->first, pending->second,
                                            PlacePolicy::kBottomLeft);
    if (!slot) return std::nullopt;
    packed.allocate_at("pending", *slot);
    plan.request_slot = *slot;
  }

  std::vector<Region> order = mgr.regions();
  std::sort(order.begin(), order.end(), [](const Region& a, const Region& b) {
    if (a.rect.area() != b.rect.area()) return a.rect.area() > b.rect.area();
    return a.id < b.id;
  });

  std::unordered_map<RegionId, ClbRect> target;
  for (const Region& r : order) {
    const auto slot =
        packed.find_free_rect(r.rect.height, r.rect.width,
                              PlacePolicy::kBottomLeft);
    if (!slot) return std::nullopt;
    packed.allocate_at(r.name, *slot);
    target[r.id] = *slot;
  }

  // Order the moves so each destination is free when its turn comes;
  // break cycles through temporary positions.
  AreaManager current = mgr;
  std::vector<RegionId> pending_moves;
  for (const Region& r : order) {
    if (target[r.id] != r.rect) pending_moves.push_back(r.id);
  }
  int stall_guard = 0;
  while (!pending_moves.empty()) {
    bool progress = false;
    for (auto it = pending_moves.begin(); it != pending_moves.end();) {
      const RegionId id = *it;
      const ClbRect from = current.region(id).rect;
      const ClbRect to = target[id];
      if (current.can_move(id, to)) {
        current.move(id, to);
        plan.moves.push_back(Move{id, from, to});
        it = pending_moves.erase(it);
        progress = true;
      } else {
        ++it;
      }
    }
    if (progress) continue;
    // Cycle: evict the first pending region to any free spot.
    const RegionId id = pending_moves.front();
    const ClbRect from = current.region(id).rect;
    const auto tmp = current.find_free_rect(from.height, from.width,
                                            PlacePolicy::kBestFit);
    if (!tmp || ++stall_guard > 2 * static_cast<int>(mgr.region_count()) + 4)
      return std::nullopt;
    current.move(id, *tmp);
    plan.moves.push_back(Move{id, from, *tmp});
  }

  if (!pending) {
    const auto biggest = current.largest_free_rect();
    plan.request_slot = biggest;
  }
  return plan;
}

}  // namespace relogic::area
