#include "relogic/config/controller.hpp"

#include <algorithm>
#include <bit>
#include <string>
#include <utility>

#include "relogic/common/audit.hpp"
#include "relogic/common/logging.hpp"

namespace relogic::config {

ConfigOp& ConfigOp::add_path(fabric::NetId net,
                             const std::vector<fabric::NodeId>& path) {
  for (std::size_t i = 1; i < path.size(); ++i) {
    add_edge(net, fabric::RouteEdge{path[i - 1], path[i]});
  }
  return *this;
}

ConfigOp& ConfigOp::remove_path(fabric::NetId net,
                                const std::vector<fabric::NodeId>& path) {
  for (std::size_t i = 1; i < path.size(); ++i) {
    remove_edge(net, fabric::RouteEdge{path[i - 1], path[i]});
  }
  return *this;
}

ConfigController::ConfigController(fabric::Fabric& fabric,
                                   const ConfigPort& port,
                                   WriteGranularity granularity,
                                   const KernelBackend* /*unused*/)
    : fabric_(&fabric),
      port_(&port),
      mapper_(fabric.geometry()),
      granularity_(granularity),
      index_(fabric.geometry()),
      image_(index_),
      columns_(fabric) {
  const auto& g = fabric.geometry();
  const int total = index_.total_frames();
  deltas_scratch_.reset(total);
  col_of_.resize(static_cast<std::size_t>(total));
  for (int id = 0; id < total; ++id)
    col_of_[static_cast<std::size_t>(id)] =
        static_cast<std::uint16_t>(index_.column_of(id));
  // No column holds more frames than the largest column type, so every
  // charge prices from the table.
  const int max_run = std::max({g.frames_center_column,
                                g.frames_per_clb_column,
                                g.frames_per_iob_column});
  time_of_run_.resize(static_cast<std::size_t>(max_run) + 1);
  for (int n = 0; n <= max_run; ++n)
    time_of_run_[static_cast<std::size_t>(n)] =
        port.write_time(n, g.frame_length_bits());
  op_words_.assign(static_cast<std::size_t>((total + 63) / 64), 0);
  overlay_.assign(static_cast<std::size_t>(columns_.slot_count()),
                  CellOverlay{0, 0});
  const std::size_t cell_keys = static_cast<std::size_t>(g.clb_cols) *
                                static_cast<std::size_t>(g.cells_per_clb);
  runkey_idx_.assign(cell_keys, 0);
  runkey_stamp_.assign(cell_keys, 0);
  col_count_.assign(static_cast<std::size_t>(index_.total_columns()), 0);
  recompute_digests(audit_baseline_);
}

void ConfigController::recompute_digests(std::vector<std::uint64_t>& out) const {
  // Reads the fabric's own cell storage, not the CellColumns token mirror,
  // so the audit cross-checks the mirror as well as the incremental image.
  const auto& g = fabric_->geometry();
  out.assign(static_cast<std::size_t>(index_.total_frames()), 0);
  const fabric::ClbConfig erased_clb{};
  const fabric::LogicCellConfig def{};
  for (int row = 0; row < g.clb_rows; ++row) {
    for (int col = 0; col < g.clb_cols; ++col) {
      const fabric::ClbConfig& clb = fabric_->clb(ClbCoord{row, col});
      if (clb == erased_clb) continue;
      for (int cell = 0; cell < g.cells_per_clb; ++cell) {
        const fabric::LogicCellConfig& cfg =
            clb.cells[static_cast<std::size_t>(cell)];
        if (cfg == def) continue;
        const std::uint64_t d = FrameImage::cell_token(row, def) ^
                                FrameImage::cell_token(row, cfg);
        const std::int32_t base = index_.cell_frame_base(col, cell);
        for (int f = 0; f < g.frames_per_cell_config; ++f)
          out[static_cast<std::size_t>(base + f)] ^= d;
      }
    }
  }
  const auto& skel = fabric_->graph().skeleton();
  for (const fabric::NetId n : fabric_->live_nets()) {
    const fabric::RouteTree& tree = fabric_->net(n);
    for (const fabric::RouteEdge& e : tree.edges)
      out[static_cast<std::size_t>(
          index_.id(mapper_.pip_frame(skel, e)))] ^=
          FrameImage::edge_token(e);
    for (const fabric::NodeId s : tree.sources)
      out[static_cast<std::size_t>(index_.id(
          source_frame(SourceChange{n, s, true})))] ^=
          FrameImage::source_token(s);
  }
}

void ConfigController::audit_image() const {
  constexpr const char* kWhere = "FrameImage";
  std::vector<std::uint64_t> current;
  recompute_digests(current);
  for (std::int32_t id = 0; id < index_.total_frames(); ++id) {
    const std::size_t i = static_cast<std::size_t>(id);
    // The image accumulates deltas relative to the construction-time state.
    const std::uint64_t expect = current[i] ^ audit_baseline_[i];
    RELOGIC_AUDIT_CHECK(
        image_.digest_id(id) == expect, kWhere,
        "frame " + std::to_string(id) + " digest " +
            std::to_string(image_.digest_id(id)) + " != recomputed " +
            std::to_string(expect) +
            " (incremental delta bug, or a fabric mutation bypassed the "
            "controller)");
    RELOGIC_AUDIT_CHECK(expect == 0 || image_.ever_touched_id(id), kWhere,
                        "frame " + std::to_string(id) +
                            " holds content but was never touched through "
                            "the controller");
  }
}

FrameAddress ConfigController::source_frame(const SourceChange& sc) const {
  // The output mux of a cell / pad enable lives in the node's own tile.
  const auto& skel = fabric_->graph().skeleton();
  const auto info = skel.info(sc.node);
  if (info.kind == fabric::NodeKind::kPad) {
    const int col = info.tile.col < fabric_->geometry().clb_cols / 2 ? 0 : 1;
    return FrameAddress{ColumnType::kIob, static_cast<std::int16_t>(col), 0};
  }
  return mapper_.pip_frame(skel, fabric::RouteEdge{sc.node, sc.node});
}

FrameAddress ConfigController::net_frame(const ConfigAction& a) const {
  if (const auto* ec = std::get_if<EdgeChange>(&a))
    return mapper_.pip_frame(fabric_->graph().skeleton(), ec->edge);
  return source_frame(std::get<SourceChange>(a));
}

void ConfigController::check_cell_bounds(const CellWrite& cw) const {
  const auto& g = fabric_->geometry();
  RELOGIC_CHECK(g.in_bounds(cw.clb));
  RELOGIC_CHECK(cw.cell >= 0 && cw.cell < g.cells_per_clb);
}

// ---- frame mapping ----------------------------------------------------------

bool ConfigController::mark_frame(std::int32_t id) const {
  const std::size_t w = static_cast<std::size_t>(id) >> 6;
  const std::uint64_t m = std::uint64_t{1} << (id & 63);
  if (op_words_[w] & m) return false;
  if (op_words_[w] == 0) op_word_marks_.push_back(static_cast<std::int32_t>(w));
  op_words_[w] |= m;
  return true;
}

void ConfigController::clear_marks() const {
  for (const std::int32_t w : op_word_marks_)
    op_words_[static_cast<std::size_t>(w)] = 0;
  op_word_marks_.clear();
}

void ConfigController::frames_of(const ConfigOp& op, FrameSet& out) const {
  out.clear();
  clear_marks();  // a throwing bounds check may have left marks behind
  const auto& g = fabric_->geometry();
  if (granularity_ == WriteGranularity::kColumn) {
    // Collect one marker id per touched column first (the column's first
    // frame id — centre frames pass through as themselves), dedupe, then
    // expand each distinct column to its contiguous frame run. Expansion
    // order follows the sorted markers, and runs are disjoint and laid out
    // in marker order, so `out` needs no second sort.
    columns_scratch_.clear();
    for (const ConfigAction& a : op.actions) {
      if (const auto* cw = std::get_if<CellWrite>(&a)) {
        check_cell_bounds(*cw);
        columns_scratch_.push(index_.clb_frame_id(cw->clb.col, 0));
        continue;
      }
      const FrameAddress f = net_frame(a);
      switch (f.type) {
        case ColumnType::kClb:
          columns_scratch_.push(index_.clb_frame_id(f.column, 0));
          break;
        case ColumnType::kIob:
          columns_scratch_.push(index_.iob_frame_id(f.column, 0));
          break;
        case ColumnType::kCenter:
          columns_scratch_.push(index_.id(f));
          break;
      }
    }
    columns_scratch_.normalize();
    for (const std::int32_t marker : columns_scratch_) {
      if (index_.is_clb(marker)) {
        out.push_run(marker, g.frames_per_clb_column);
      } else if (index_.is_iob(marker)) {
        out.push_run(marker, g.frames_per_iob_column);
      } else {
        out.push(marker);  // centre frame: written as mapped, never widened
      }
    }
    return;
  }
  // Mark every mapped frame in the per-op bitmap, then expand only the
  // marked words in ascending word order: sorted and duplicate-free.
  for (const ConfigAction& a : op.actions) {
    if (const auto* cw = std::get_if<CellWrite>(&a)) {
      check_cell_bounds(*cw);
      const std::int32_t base = index_.cell_frame_base(cw->clb.col, cw->cell);
      for (int f = 0; f < g.frames_per_cell_config; ++f) mark_frame(base + f);
    } else {
      mark_frame(index_.id(net_frame(a)));
    }
  }
  std::sort(op_word_marks_.begin(), op_word_marks_.end());
  for (const std::int32_t w : op_word_marks_) {
    std::uint64_t bits = op_words_[static_cast<std::size_t>(w)];
    while (bits) {
      out.push(w * 64 + std::countr_zero(bits));
      bits &= bits - 1;
    }
  }
  clear_marks();
}

int ConfigController::readback_frames(const ConfigOp& op) const {
  frames_of(op, frames_scratch_);
  return static_cast<int>(frames_scratch_.size());
}

// ---- delta accumulation -----------------------------------------------------

void ConfigController::begin_op() const {
  if (++op_epoch_ == 0) {  // stamp wrap: restart the epoch space
    std::fill(runkey_stamp_.begin(), runkey_stamp_.end(), 0);
    op_epoch_ = 1;
  }
  run_base_.clear();
  run_delta_.clear();
  run_col_.clear();
  deltas_scratch_.clear();
  clear_marks();
  net_frames_ = 0;
}

std::size_t ConfigController::run_index(int col, int cell) const {
  const std::size_t key =
      static_cast<std::size_t>(col) *
          static_cast<std::size_t>(fabric_->geometry().cells_per_clb) +
      static_cast<std::size_t>(cell);
  if (runkey_stamp_[key] != op_epoch_) {
    runkey_stamp_[key] = op_epoch_;
    runkey_idx_[key] = static_cast<std::int32_t>(run_base_.size());
    run_base_.push_back(index_.cell_frame_base(col, cell));
    run_delta_.push_back(0);
    run_col_.push_back(1 + col);  // dense column of a CLB column
  }
  return static_cast<std::size_t>(runkey_idx_[key]);
}

void ConfigController::clear_overlays() const {
  if (++overlay_epoch_ == 0) {  // stamp wrap: restart the epoch space
    for (CellOverlay& ov : overlay_) ov.stamp = 0;
    overlay_epoch_ = 1;
  }
  overlay_edges_.clear();
  overlay_sources_.clear();
}

void ConfigController::simulate(const ConfigOp& op, bool count_frames) const {
  const std::uint64_t* toks = columns_.tokens();
  for (const ConfigAction& a : op.actions) {
    if (const auto* cw = std::get_if<CellWrite>(&a)) {
      check_cell_bounds(*cw);
      const std::size_t run = run_index(cw->clb.col, cw->cell);
      const std::size_t slot = static_cast<std::size_t>(
          columns_.slot(cw->clb.row, cw->clb.col, cw->cell));
      CellOverlay& ov = overlay_[slot];
      const std::uint64_t before =
          ov.stamp == overlay_epoch_ ? ov.tok : toks[slot];
      const std::uint64_t after = FrameImage::cell_token(cw->clb.row, cw->cfg);
      ov.stamp = overlay_epoch_;
      ov.tok = after;
      run_delta_[run] ^= before ^ after;
      continue;
    }
    const std::int32_t id = index_.id(net_frame(a));
    if (count_frames && mark_frame(id)) ++net_frames_;
    if (const auto* ec = std::get_if<EdgeChange>(&a)) {
      const EdgeKey key{ec->net, ec->edge.from, ec->edge.to};
      const auto [it, inserted] = overlay_edges_.try_emplace(key, ec->add);
      const bool on = inserted ? (fabric_->net_exists(ec->net) &&
                                  fabric_->net(ec->net).has_edge(ec->edge))
                               : it->second;
      if (!inserted) it->second = ec->add;
      if (on != ec->add)
        deltas_scratch_.xor_delta(id, FrameImage::edge_token(ec->edge));
    } else {
      const auto& sc = std::get<SourceChange>(a);
      const std::uint64_t key =
          (static_cast<std::uint64_t>(sc.net) << 32) | sc.node;
      const auto [it, inserted] = overlay_sources_.try_emplace(key, sc.attach);
      const bool on = inserted ? (fabric_->net_exists(sc.net) &&
                                  fabric_->net(sc.net).has_source(sc.node))
                               : it->second;
      if (!inserted) it->second = sc.attach;
      if (on != sc.attach)
        deltas_scratch_.xor_delta(id, FrameImage::source_token(sc.node));
    }
  }
}

// ---- dirty selection and pricing --------------------------------------------

void ConfigController::charge(std::int32_t col, int frames) const {
  int& count = col_count_[static_cast<std::size_t>(col)];
  if (count == 0) col_list_.push_back(col);
  count += frames;
}

ApplyResult ConfigController::price_charged() const {
  ApplyResult result;
  for (const std::int32_t c : col_list_) {
    int& run = col_count_[static_cast<std::size_t>(c)];
    result.frames_written += run;
    result.time += time_of_run_.at(static_cast<std::size_t>(run));
    run = 0;
  }
  result.columns_touched = static_cast<int>(col_list_.size());
  col_list_.clear();
  return result;
}

ApplyResult ConfigController::price_set(const FrameSet& frames) const {
  // Ids are sorted and column-contiguous (FrameIndex layout): each column
  // is one run.
  const std::int32_t* ids = frames.begin();
  const std::size_t n = frames.size();
  for (std::size_t i = 0; i < n;) {
    const std::uint16_t col = col_of_[static_cast<std::size_t>(ids[i])];
    std::size_t j = i + 1;
    while (j < n && col_of_[static_cast<std::size_t>(ids[j])] == col) ++j;
    charge(col, static_cast<int>(j - i));
    i = j;
  }
  return price_charged();
}

ApplyResult ConfigController::price_dirty(FrameSet* written) const {
  const int fpc = fabric_->geometry().frames_per_cell_config;
  if (written != nullptr) written->clear();
  for (std::size_t i = 0; i < run_base_.size(); ++i) {
    if (run_delta_[i] == 0) continue;
    charge(run_col_[i], fpc);
    if (written != nullptr) written->push_run(run_base_[i], fpc);
  }
  for (const std::int32_t id : deltas_scratch_.touched()) {
    if (deltas_scratch_.delta(id) == 0) continue;  // XOR-cancelled
    charge(col_of_[static_cast<std::size_t>(id)], 1);
    if (written != nullptr) written->push(id);
  }
  if (written != nullptr) written->normalize();
  return price_charged();
}

int ConfigController::column_count(const FrameSet& frames) const {
  int columns = 0;
  std::int32_t run_column = -1;
  for (const std::int32_t id : frames) {
    const std::int32_t col = index_.column_of(id);
    if (col != run_column) {
      run_column = col;
      ++columns;
    }
  }
  return columns;
}

// ---- preview ------------------------------------------------------------------

ApplyResult ConfigController::preview(const ConfigOp& op) const {
  // Counted mode: kDirtyFrame never materializes the op's frame id list —
  // it only needs |frames_of(op)|, which simulate() counts.
  if (granularity_ == WriteGranularity::kDirtyFrame)
    return preview_dirty(op, nullptr);
  frames_of(op, frames_scratch_);
  return price_set(frames_scratch_);
}

ApplyResult ConfigController::preview(const ConfigOp& op,
                                      const FrameSet& frames) const {
  if (granularity_ == WriteGranularity::kDirtyFrame)
    return preview_dirty(op, &frames);
  return price_set(frames);
}

ApplyResult ConfigController::preview_dirty(const ConfigOp& op,
                                            const FrameSet* frames) const {
  clear_overlays();
  begin_op();
  simulate(op, frames == nullptr);
  ApplyResult result = price_dirty(nullptr);
  const int total =
      frames != nullptr
          ? static_cast<int>(frames->size())
          : static_cast<int>(run_base_.size()) *
                    fabric_->geometry().frames_per_cell_config +
                net_frames_;
  result.frames_skipped = total - result.frames_written;
  return result;
}

void ConfigController::preview_sequence(
    const std::vector<ConfigOp>& ops,
    const std::function<void(std::size_t, const ApplyResult&,
                             const FrameSet&)>& visit) const {
  // One persistent overlay across the whole sequence: op k's deltas are
  // computed against the fabric plus everything ops 0..k-1 would have
  // written, so per-op dirty decisions match a sequential apply exactly.
  clear_overlays();
  for (std::size_t i = 0; i < ops.size(); ++i) {
    frames_of(ops[i], frames_scratch_);
    if (granularity_ != WriteGranularity::kDirtyFrame) {
      visit(i, price_set(frames_scratch_), frames_scratch_);
      continue;
    }
    begin_op();
    simulate(ops[i], false);
    ApplyResult r = price_dirty(&dirty_scratch_);
    r.frames_skipped =
        static_cast<int>(frames_scratch_.size()) - r.frames_written;
    visit(i, r, dirty_scratch_);
  }
}

// ---- apply --------------------------------------------------------------------

ApplyResult ConfigController::apply(const ConfigOp& op,
                                    bool allow_lut_ram_columns) {
  // Counted mode (see preview(op)): skip materializing the frame id list.
  if (granularity_ == WriteGranularity::kDirtyFrame)
    return apply_op(op, nullptr, allow_lut_ram_columns);
  frames_of(op, frames_scratch_);
  return apply_op(op, &frames_scratch_, allow_lut_ram_columns);
}

ApplyResult ConfigController::apply(const ConfigOp& op, const FrameSet& frames,
                                    bool allow_lut_ram_columns) {
  return apply_op(op, &frames, allow_lut_ram_columns);
}

ApplyResult ConfigController::apply_op(const ConfigOp& op,
                                       const FrameSet* frames,
                                       bool allow_lut_ram_columns) {
  if (!allow_lut_ram_columns) check_lut_ram_columns(op);
  begin_op();
  const bool counting = frames == nullptr;
  if (counting) {
    // Counted mode stands in for the frames_of(op) call made otherwise:
    // validate every action before any fabric mutation, and mark the net
    // frames for the distinct count.
    for (const ConfigAction& a : op.actions) {
      if (const auto* cw = std::get_if<CellWrite>(&a)) {
        check_cell_bounds(*cw);
      } else if (mark_frame(index_.id(net_frame(a)))) {
        ++net_frames_;
      }
    }
  }

  // Apply the structural actions in order. A cell's before/after tokens
  // come straight from the token mirror — the CellColumns listener has
  // already folded the observed after-value (faults included) by the time
  // set_cell_config returns. Net deltas go to the per-frame map.
  const std::uint64_t* toks = columns_.tokens();
  int effective = 0;
  for (const ConfigAction& a : op.actions) {
    if (const auto* cw = std::get_if<CellWrite>(&a)) {
      const std::size_t run = run_index(cw->clb.col, cw->cell);
      const std::size_t slot = static_cast<std::size_t>(
          columns_.slot(cw->clb.row, cw->clb.col, cw->cell));
      const std::uint64_t before = toks[slot];
      if (fabric_->set_cell_config(cw->clb, cw->cell, cw->cfg)) {
        ++effective;
        run_delta_[run] ^= before ^ toks[slot];
      }
    } else if (const auto* ec = std::get_if<EdgeChange>(&a)) {
      const auto& tree = fabric_->net(ec->net);
      if (ec->add ? !tree.has_edge(ec->edge) : tree.has_edge(ec->edge)) {
        if (ec->add)
          fabric_->add_edge(ec->net, ec->edge);
        else
          fabric_->remove_edge(ec->net, ec->edge);
        ++effective;
        deltas_scratch_.xor_delta(index_.id(net_frame(a)),
                                  FrameImage::edge_token(ec->edge));
      }
    } else if (const auto* sc = std::get_if<SourceChange>(&a)) {
      const auto& tree = fabric_->net(sc->net);
      if (sc->attach ? !tree.has_source(sc->node) : tree.has_source(sc->node)) {
        if (sc->attach)
          fabric_->attach_source(sc->net, sc->node);
        else
          fabric_->detach_source(sc->net, sc->node);
        ++effective;
        deltas_scratch_.xor_delta(index_.id(net_frame(a)),
                                  FrameImage::source_token(sc->node));
      }
    }
  }

  // Commit the runs and the net deltas to the shadow image (zero deltas
  // are no-ops), then price per granularity.
  const int fpc = fabric_->geometry().frames_per_cell_config;
  for (std::size_t i = 0; i < run_base_.size(); ++i)
    image_.apply_delta_run(run_base_[i], fpc, run_delta_[i]);
  for (const std::int32_t id : deltas_scratch_.touched())
    image_.apply_delta_id(id, deltas_scratch_.delta(id));

  ApplyResult result;
  if (granularity_ == WriteGranularity::kDirtyFrame) {
    result = price_dirty(nullptr);
    const int total =
        counting ? static_cast<int>(run_base_.size()) * fpc + net_frames_
                 : static_cast<int>(frames->size());
    result.frames_skipped = total - result.frames_written;
  } else {
    result = price_set(*frames);
  }
  result.effective_actions = effective;

  ++totals_.ops;
  totals_.frames_written += result.frames_written;
  totals_.frames_skipped += result.frames_skipped;
  totals_.columns_touched += result.columns_touched;
  const SimTime span_start = totals_.time;
  totals_.time += result.time;

  if (trace_) {
    trace_.complete("config", op.label, span_start, result.time,
                    {obs::arg("granularity", to_string(granularity_)),
                     obs::arg("frames_written", result.frames_written),
                     obs::arg("frames_skipped", result.frames_skipped),
                     obs::arg("columns", result.columns_touched),
                     obs::arg("effective_actions", result.effective_actions)});
    trace_.counter("frames_written", totals_.time,
                   static_cast<double>(totals_.frames_written));
    set_log_context("config", totals_.time);
  }

  RELOGIC_LOG(kDebug) << "config op '" << op.label << "': "
                      << result.frames_written << " frames ("
                      << result.frames_skipped << " clean-skipped), "
                      << result.columns_touched << " columns, "
                      << result.time.to_string();
  return result;
}


// ---- LUT-RAM legality -------------------------------------------------------

void ConfigController::check_lut_ram_columns(
    const ConfigOp& op, const std::vector<CellKey>* extra_rewritten) const {
  // No live LUT-RAM anywhere -> nothing the op touches can violate the
  // paper's Sec. 2 restriction; skip the column derivation entirely.
  if (fabric_->live_lut_ram_total() == 0) return;
  // The CLB-column set of an op's frames equals the CLB-column set of its
  // actions (widening only adds frames inside already-touched columns), so
  // the check derives columns from the actions directly — no frame walk —
  // and keeps only those holding live LUT-RAM.
  const auto& g = fabric_->geometry();
  ram_cols_.clear();
  for (const ConfigAction& a : op.actions) {
    int col = -1;
    if (const auto* cw = std::get_if<CellWrite>(&a)) {
      RELOGIC_CHECK(g.in_bounds(cw->clb));
      col = cw->clb.col;
    } else if (const FrameAddress f = net_frame(a); f.type == ColumnType::kClb) {
      col = f.column;
    }
    if (col >= 0 && fabric_->live_lut_ram_in_col(col) != 0)
      ram_cols_.push_back(col);
  }
  if (ram_cols_.empty()) return;
  // Ascending column order, so a violation names the lowest such column.
  std::sort(ram_cols_.begin(), ram_cols_.end());
  ram_cols_.erase(std::unique(ram_cols_.begin(), ram_cols_.end()),
                  ram_cols_.end());

  // Cells the op itself rewrites (those are intentional, hence exempt),
  // plus any the caller knows are rewritten before this op applies.
  rewrites_scratch_.clear();
  for (const ConfigAction& a : op.actions) {
    if (const auto* cw = std::get_if<CellWrite>(&a))
      rewrites_scratch_.push_back(cell_key(cw->clb.row, cw->clb.col, cw->cell));
  }
  std::sort(rewrites_scratch_.begin(), rewrites_scratch_.end());
  const auto rewritten = [&](int row, int col, int cell) {
    const CellKey key = cell_key(row, col, cell);
    return std::binary_search(rewrites_scratch_.begin(),
                              rewrites_scratch_.end(), key) ||
           (extra_rewritten != nullptr &&
            std::binary_search(extra_rewritten->begin(),
                               extra_rewritten->end(), key));
  };

  for (const int col : ram_cols_) {
    for (int row = 0; row < g.clb_rows; ++row) {
      const ClbCoord c{row, col};
      for (int k = 0; k < g.cells_per_clb; ++k) {
        const auto& cell = fabric_->cell(c, k);
        if (cell.used && cell.lut_mode == fabric::LutMode::kRam &&
            !rewritten(row, col, k)) {
          throw IllegalOperationError(
              "config op '" + op.label + "' touches column " +
              std::to_string(col) + " which holds a live LUT-RAM at " +
              c.to_string() + " cell " + std::to_string(k) +
              " (paper Sec. 2: LUT/RAMs must not lie in affected columns)");
        }
      }
    }
  }
}

}  // namespace relogic::config
