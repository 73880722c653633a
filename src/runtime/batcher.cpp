#include "relogic/runtime/batcher.hpp"

#include <algorithm>
#include <utility>

#include "relogic/common/audit.hpp"
#include "relogic/common/logging.hpp"

namespace relogic::runtime {

TransactionBatcher::TransactionBatcher(config::ConfigController& controller,
                                       BatchOptions options)
    : controller_(&controller), options_(options) {}

void TransactionBatcher::enqueue(const config::ConfigOp& op) {
  if (op.empty()) return;
  // One frame-set computation per op; the unbatched-baseline preview, the
  // legality check, the max_columns / max_frames gates AND the flush-time
  // apply (through the running union) all share it. Stats are only
  // recorded once the op is past the checks that can throw, so a rejected
  // op never skews the batched-vs-unbatched comparison.
  controller_->frames_of(op, op_frames_);

  // An op that writes a LUT-RAM cell config must apply alone: the live
  // LUT-RAM column check runs once per transaction against the fabric
  // state at apply time, and this is the one case where checking a merged
  // op diverges from checking each op in sequence (a later op touching the
  // column of a RAM cell an earlier pending op just created would slip
  // through the merged check's exemption set).
  bool writes_lut_ram = false;
  for (const config::ConfigAction& a : op.actions) {
    if (const auto* cw = std::get_if<config::CellWrite>(&a)) {
      if (cw->cfg.used && cw->cfg.lut_mode == fabric::LutMode::kRam)
        writes_lut_ram = true;
    }
  }

  if (options_.max_ops <= 1 || writes_lut_ram) {
    // Flush *before* previewing the baseline: with the pending batch
    // applied, the solo path's unbatched accounting is exact under
    // kDirtyFrame (the op previews against the very state the unbatched
    // sequence would see), not an estimate.
    flush();
    const auto alone = controller_->preview(op, op_frames_);
    const auto r =
        controller_->apply(op, op_frames_, options_.allow_lut_ram_columns);
    ++stats_.ops_in;
    stats_.unbatched_column_writes += alone.columns_touched;
    stats_.unbatched_frames += alone.frames_written;
    stats_.unbatched_frames_skipped += alone.frames_skipped;
    stats_.unbatched_time += alone.time;
    ++stats_.transactions;
    stats_.column_writes += r.columns_touched;
    stats_.frames_written += r.frames_written;
    stats_.frames_skipped += r.frames_skipped;
    stats_.time += r.time;
    // Solo ops commit outside flush(); audit this transaction boundary too.
    if constexpr (relogic::audit_enabled()) controller_->audit_image();
    return;
  }

  // Exact per-op legality: check this op now, against the current fabric
  // with the pending batch's cell writes as extra exemptions. Pending ops
  // never create LUT-RAM cells (isolated above), so a RAM cell rewritten
  // by a pending op is guaranteed dead by the time this op would apply in
  // the unbatched sequence — exempting exactly those cells reproduces the
  // per-op check's verdict. The merged apply()'s own check is strictly
  // weaker and serves as a safety net only.
  if (!options_.allow_lut_ram_columns)
    controller_->check_lut_ram_columns(op, &pending_rewrites_);

  // Merge-path baseline: previewed against the fabric as it stands at
  // enqueue (before the pending batch applies) — an estimate under
  // kDirtyFrame, exact otherwise (see the header comment).
  const auto alone = controller_->preview(op, op_frames_);

  ++stats_.ops_in;
  stats_.unbatched_column_writes += alone.columns_touched;
  stats_.unbatched_frames += alone.frames_written;
  stats_.unbatched_frames_skipped += alone.frames_skipped;
  stats_.unbatched_time += alone.time;

  if (pending_ops_ > 0 && (options_.max_columns > 0 || options_.max_frames > 0)) {
    merged_scratch_ = pending_frames_;
    merged_scratch_.union_with(op_frames_);
    if (options_.max_columns > 0 &&
        controller_->column_count(merged_scratch_) > options_.max_columns) {
      flush();
    } else if (options_.max_frames > 0 &&
               static_cast<int>(merged_scratch_.size()) > options_.max_frames) {
      flush();
    }
  }

  if (pending_ops_ == 0) {
    pending_ = op;
    pending_frames_ = op_frames_;
    pending_ops_ = 1;
  } else {
    pending_.label += " + " + op.label;
    pending_.actions.insert(pending_.actions.end(), op.actions.begin(),
                            op.actions.end());
    pending_frames_.union_with(op_frames_);
    ++pending_ops_;
  }
  // Keep the exemption keys sorted: sort this op's keys, merge them in.
  const auto old_end = static_cast<std::ptrdiff_t>(pending_rewrites_.size());
  for (const config::ConfigAction& a : op.actions) {
    if (const auto* cw = std::get_if<config::CellWrite>(&a))
      pending_rewrites_.push_back(config::ConfigController::cell_key(
          cw->clb.row, cw->clb.col, cw->cell));
  }
  std::sort(pending_rewrites_.begin() + old_end, pending_rewrites_.end());
  std::inplace_merge(pending_rewrites_.begin(),
                     pending_rewrites_.begin() + old_end,
                     pending_rewrites_.end());
  if (pending_ops_ >= options_.max_ops) flush();
}

void TransactionBatcher::flush() {
  if (pending_ops_ == 0) return;
  const int batched = std::exchange(pending_ops_, 0);
  config::ConfigOp op = std::move(pending_);
  pending_ = config::ConfigOp{};
  pending_rewrites_.clear();
  // The running union IS frames_of(op) for the merged op, so apply skips
  // the re-mapping pass entirely.
  const auto r =
      controller_->apply(op, pending_frames_, options_.allow_lut_ram_columns);
  pending_frames_.clear();
  ++stats_.transactions;
  stats_.column_writes += r.columns_touched;
  stats_.frames_written += r.frames_written;
  stats_.frames_skipped += r.frames_skipped;
  stats_.time += r.time;
  RELOGIC_LOG(kDebug) << "batched " << batched << " config ops into one "
                      << r.columns_touched << "-column transaction ("
                      << r.time.to_string() << ")";
  // Flush boundary: in audit builds, cross-check the digest mirror against
  // a full recompute now that the merged transaction has committed.
  if constexpr (relogic::audit_enabled()) controller_->audit_image();
}

}  // namespace relogic::runtime
