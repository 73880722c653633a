// Brute-force oracle for area::AreaManager. Seeded random allocate /
// allocate_at / move / release / mask_faulty streams run against the
// manager and against a naive occupancy model kept here; after every
// operation every free-space query is compared with exhaustive enumeration
// over the model, and audit() must pass. Copies of a manager taken
// mid-stream are checked the same way: the defrag planners work on copies,
// and a copy carries the manager's cached free-space summary.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "relogic/area/manager.hpp"
#include "relogic/common/rng.hpp"

namespace relogic::area {
namespace {

/// One occupant per CLB; every query answered by enumerating positions.
class NaiveArea {
 public:
  NaiveArea(int rows, int cols)
      : rows_(rows),
        cols_(cols),
        grid_(static_cast<std::size_t>(rows) * cols, kNoRegion) {}

  int rows() const { return rows_; }
  int cols() const { return cols_; }

  RegionId at(int r, int c) const {
    return grid_[static_cast<std::size_t>(r) * cols_ + c];
  }

  void fill(const ClbRect& rect, RegionId id) {
    for (int r = rect.row; r < rect.row_end(); ++r)
      for (int c = rect.col; c < rect.col_end(); ++c)
        grid_[static_cast<std::size_t>(r) * cols_ + c] = id;
  }

  /// In bounds, and every CLB free or held by `self`.
  bool free(const ClbRect& rect, RegionId self = kNoRegion) const {
    if (rect.row < 0 || rect.col < 0 || rect.row_end() > rows_ ||
        rect.col_end() > cols_)
      return false;
    for (int r = rect.row; r < rect.row_end(); ++r)
      for (int c = rect.col; c < rect.col_end(); ++c)
        if (at(r, c) != kNoRegion && at(r, c) != self) return false;
    return true;
  }

  int free_clbs() const {
    int n = 0;
    for (RegionId id : grid_) n += id == kNoRegion ? 1 : 0;
    return n;
  }

  /// Bottom-left: the first free position in row-major order of the
  /// top-left corner. Best-fit: the most occupied-or-border CLBs along the
  /// four sides, the first such position on ties.
  std::optional<ClbRect> find(int h, int w, PlacePolicy policy,
                              const ClbRect* avoid) const {
    std::optional<ClbRect> best;
    int best_score = -1;
    for (int row = 0; row + h <= rows_; ++row) {
      for (int col = 0; col + w <= cols_; ++col) {
        const ClbRect r{row, col, h, w};
        if (!free(r)) continue;
        if (avoid != nullptr && r.overlaps(*avoid)) continue;
        if (policy == PlacePolicy::kBottomLeft) return r;
        int score = 0;
        for (int c = col; c < col + w; ++c)
          score += blocked(row - 1, c) + blocked(row + h, c);
        for (int rr = row; rr < row + h; ++rr)
          score += blocked(rr, col - 1) + blocked(rr, col + w);
        if (score > best_score) {
          best = r;
          best_score = score;
        }
      }
    }
    return best;
  }

  /// Every free rectangle, by brute force over all positions and sizes.
  std::vector<ClbRect> free_rects() const {
    // occ[(r)*(cols+1)+c]: occupied CLBs in rows < r, cols < c.
    const int stride = cols_ + 1;
    std::vector<int> occ(static_cast<std::size_t>(rows_ + 1) * stride, 0);
    for (int r = 0; r < rows_; ++r)
      for (int c = 0; c < cols_; ++c)
        occ[static_cast<std::size_t>(r + 1) * stride + c + 1] =
            (at(r, c) != kNoRegion ? 1 : 0) +
            occ[static_cast<std::size_t>(r) * stride + c + 1] +
            occ[static_cast<std::size_t>(r + 1) * stride + c] -
            occ[static_cast<std::size_t>(r) * stride + c];
    auto occupied = [&](int r0, int c0, int r1, int c1) {
      return occ[static_cast<std::size_t>(r1) * stride + c1] -
             occ[static_cast<std::size_t>(r0) * stride + c1] -
             occ[static_cast<std::size_t>(r1) * stride + c0] +
             occ[static_cast<std::size_t>(r0) * stride + c0];
    };
    std::vector<ClbRect> out;
    for (int r0 = 0; r0 < rows_; ++r0)
      for (int c0 = 0; c0 < cols_; ++c0)
        for (int r1 = r0 + 1; r1 <= rows_; ++r1)
          for (int c1 = c0 + 1; c1 <= cols_; ++c1)
            if (occupied(r0, c0, r1, c1) == 0)
              out.push_back(ClbRect{r0, c0, r1 - r0, c1 - c0});
    return out;
  }

  /// The largest free rectangle. Ties go to the smallest bottom edge, then
  /// the smallest right edge, then the taller rectangle: the order in which
  /// the manager's row-by-row histogram sweep first meets them.
  static ClbRect largest(const std::vector<ClbRect>& rects) {
    ClbRect best{0, 0, 0, 0};
    auto before = [](const ClbRect& a, const ClbRect& b) {
      if (a.area() != b.area()) return a.area() > b.area();
      if (a.row_end() != b.row_end()) return a.row_end() < b.row_end();
      if (a.col_end() != b.col_end()) return a.col_end() < b.col_end();
      return a.height > b.height;
    };
    for (const ClbRect& r : rects)
      if (best.area() == 0 || before(r, best)) best = r;
    return best;
  }

  /// profile[h-1]: widest free rectangle of height h (0 if none).
  std::vector<int> profile(const std::vector<ClbRect>& rects) const {
    std::vector<int> p(static_cast<std::size_t>(rows_), 0);
    for (const ClbRect& r : rects) {
      int& widest = p[static_cast<std::size_t>(r.height - 1)];
      widest = std::max(widest, r.width);
    }
    return p;
  }

 private:
  int blocked(int r, int c) const {
    if (r < 0 || r >= rows_ || c < 0 || c >= cols_) return 1;
    return at(r, c) != kNoRegion ? 1 : 0;
  }

  int rows_;
  int cols_;
  std::vector<RegionId> grid_;
};

/// A manager under test, its model, and the live regions both agree on.
struct Subject {
  AreaManager mgr;
  NaiveArea model;
  std::map<RegionId, ClbRect> live;
};

std::string where(const Subject& s, int step) {
  return "step " + std::to_string(step) + "\n" + s.mgr.to_ascii();
}

/// Shapes whose find_free_rect answers are compared at one check: every
/// shape on small grids; on large ones a random sample plus, per height,
/// the widest shape that fits and the narrowest that does not.
std::vector<std::pair<int, int>> shapes_to_check(const Subject& s, Rng& rng,
                                                 const std::vector<int>& prof) {
  const int rows = s.model.rows();
  const int cols = s.model.cols();
  std::vector<std::pair<int, int>> shapes;
  if (rows * cols <= 64) {
    for (int h = 1; h <= rows; ++h)
      for (int w = 1; w <= cols; ++w) shapes.emplace_back(h, w);
    return shapes;
  }
  for (int i = 0; i < 6; ++i)
    shapes.emplace_back(rng.next_int(1, rows), rng.next_int(1, cols));
  for (int k = 0; k < 3; ++k) {
    const int h = rng.next_int(1, rows);
    const int widest = prof[static_cast<std::size_t>(h - 1)];
    if (widest >= 1) shapes.emplace_back(h, widest);
    if (widest < cols) shapes.emplace_back(h, widest + 1);
  }
  return shapes;
}

void check(const Subject& s, Rng& rng, int step) {
  SCOPED_TRACE(where(s, step));
  const AreaManager& mgr = s.mgr;
  const int rows = s.model.rows();
  const int cols = s.model.cols();

  // Query order varies so the cache is sometimes filled by a placement
  // query and sometimes by a summary read.
  if (rng.next_bool())
    (void)mgr.find_free_rect(rng.next_int(1, rows), rng.next_int(1, cols),
                             PlacePolicy::kBottomLeft);

  const auto rects = s.model.free_rects();
  const ClbRect largest = NaiveArea::largest(rects);
  const auto prof = s.model.profile(rects);
  const int free_count = s.model.free_clbs();

  ASSERT_EQ(mgr.free_clbs(), free_count);
  ASSERT_EQ(mgr.largest_free_rect(), largest);
  ASSERT_EQ(mgr.free_width_profile(), prof);
  const double frag =
      free_count == 0 ? 0.0
                      : 1.0 - static_cast<double>(largest.area()) / free_count;
  ASSERT_EQ(mgr.fragmentation(), frag);

  ASSERT_EQ(mgr.region_count(), s.live.size());
  for (const auto& [id, rect] : s.live) ASSERT_EQ(mgr.region(id).rect, rect);
  for (int r = 0; r < rows; ++r)
    for (int c = 0; c < cols; ++c)
      ASSERT_EQ(mgr.at(ClbCoord{r, c}), s.model.at(r, c)) << r << "," << c;

  const int ar = rng.next_int(0, rows - 1);
  const int ac = rng.next_int(0, cols - 1);
  const ClbRect avoid{ar, ac, rng.next_int(1, rows - ar),
                      rng.next_int(1, cols - ac)};
  for (const auto& [h, w] : shapes_to_check(s, rng, prof)) {
    SCOPED_TRACE(std::to_string(h) + "x" + std::to_string(w) + " avoiding " +
                 avoid.to_string());
    for (const PlacePolicy policy :
         {PlacePolicy::kBottomLeft, PlacePolicy::kBestFit}) {
      ASSERT_EQ(mgr.find_free_rect(h, w, policy),
                s.model.find(h, w, policy, nullptr));
      ASSERT_EQ(mgr.find_free_rect(h, w, policy, &avoid),
                s.model.find(h, w, policy, &avoid));
    }
    ASSERT_EQ(mgr.can_fit(h, w),
              s.model.find(h, w, PlacePolicy::kBottomLeft, nullptr)
                  .has_value());
  }

  ASSERT_NO_THROW(mgr.audit());
}

/// One random operation on `s`, mirrored in its model.
void random_op(Subject& s, Rng& rng, int max_side) {
  const int rows = s.model.rows();
  const int cols = s.model.cols();
  auto random_live = [&]() {
    auto it = s.live.begin();
    std::advance(it, static_cast<long>(rng.next_below(s.live.size())));
    return it;
  };
  const int pick = rng.next_int(0, 99);

  if (pick < 35) {  // allocate
    const int h = rng.next_int(1, std::min(max_side, rows));
    const int w = rng.next_int(1, std::min(max_side, cols));
    const PlacePolicy policy =
        rng.next_bool() ? PlacePolicy::kBottomLeft : PlacePolicy::kBestFit;
    const auto expect = s.model.find(h, w, policy, nullptr);
    const RegionId id = s.mgr.allocate("a", h, w, policy);
    if (!expect) {
      ASSERT_EQ(id, kNoRegion);
      return;
    }
    ASSERT_NE(id, kNoRegion);
    ASSERT_EQ(s.mgr.region(id).rect, *expect);
    s.model.fill(*expect, id);
    s.live[id] = *expect;
  } else if (pick < 45) {  // allocate_at, legal or not
    const int row = rng.next_int(0, rows - 1);
    const int col = rng.next_int(0, cols - 1);
    const ClbRect rect{row, col, rng.next_int(1, std::min(max_side, rows)),
                       rng.next_int(1, std::min(max_side, cols))};
    if (!s.model.free(rect)) {
      ASSERT_ANY_THROW(s.mgr.allocate_at("x", rect));
      return;
    }
    const RegionId id = s.mgr.allocate_at("x", rect);
    s.model.fill(rect, id);
    s.live[id] = rect;
  } else if (pick < 65) {  // move, legal or not
    if (s.live.empty()) return;
    const auto it = random_live();
    const RegionId id = it->first;
    const ClbRect from = it->second;
    ClbRect to{rng.next_int(0, rows - 1), rng.next_int(0, cols - 1),
               from.height, from.width};
    if (rng.next_bool()) {
      // A destination a planner would pick: free space outside itself.
      if (const auto dest = s.model.find(from.height, from.width,
                                         PlacePolicy::kBottomLeft, nullptr))
        to = *dest;
    }
    const bool legal = s.model.free(to, id);
    ASSERT_EQ(s.mgr.can_move(id, to), legal);
    if (!legal) {
      ASSERT_ANY_THROW(s.mgr.move(id, to));
      return;
    }
    s.mgr.move(id, to);
    s.model.fill(from, kNoRegion);
    s.model.fill(to, id);
    it->second = to;
  } else if (pick < 92) {  // release
    if (s.live.empty()) return;
    const auto it = random_live();
    s.mgr.release(it->first);
    s.model.fill(it->second, kNoRegion);
    s.live.erase(it);
  } else {  // mask_faulty: free, already masked, or occupied
    const int r = rng.next_int(0, rows - 1);
    const int c = rng.next_int(0, cols - 1);
    const RegionId occ = s.model.at(r, c);
    if (occ > 0) {
      ASSERT_ANY_THROW(s.mgr.mask_faulty(ClbCoord{r, c}));
      return;
    }
    // Keep faults rare so the stream keeps room to place.
    if (occ == kNoRegion && s.mgr.masked_clbs() * 16 >= rows * cols) return;
    s.mgr.mask_faulty(ClbCoord{r, c});
    s.model.fill(ClbRect{r, c, 1, 1}, kFaultyRegion);
  }
}

void run_stream(int rows, int cols, int max_side, int ops,
                std::uint64_t seed) {
  SCOPED_TRACE(std::to_string(rows) + "x" + std::to_string(cols) + " seed " +
               std::to_string(seed));
  Rng rng(seed);
  Subject s{AreaManager(rows, cols), NaiveArea(rows, cols), {}};
  check(s, rng, 0);
  for (int step = 1; step <= ops; ++step) {
    random_op(s, rng, max_side);
    if (::testing::Test::HasFatalFailure()) return;
    check(s, rng, step);
    if (::testing::Test::HasFatalFailure()) return;

    if (rng.next_int(0, 99) < 6) {
      // A mid-stream copy evolves on its own; the original must not see
      // its changes, and sometimes the stream continues from the copy.
      Subject fork = s;
      for (int k = 0; k < 8; ++k) {
        random_op(fork, rng, max_side);
        if (::testing::Test::HasFatalFailure()) return;
        check(fork, rng, step);
        if (::testing::Test::HasFatalFailure()) return;
      }
      check(s, rng, step);
      if (::testing::Test::HasFatalFailure()) return;
      if (rng.next_bool()) s = fork;
    }
  }
}

TEST(AreaOracle, TinyGrids) {
  const std::vector<std::pair<int, int>> grids{
      {1, 1}, {1, 6}, {5, 1}, {3, 4}, {5, 7}, {8, 8}};
  for (const auto& [rows, cols] : grids)
    for (std::uint64_t seed = 1; seed <= 3; ++seed)
      run_stream(rows, cols, std::max(rows, cols), 300, seed);
}

TEST(AreaOracle, Grid24x24) {
  for (std::uint64_t seed = 11; seed <= 14; ++seed)
    run_stream(24, 24, 10, 250, seed);
}

}  // namespace
}  // namespace relogic::area
