// TransactionBatcher: coalesces adjacent ConfigOps into single
// configuration-port transactions.
//
// The controller issues one port transaction per touched column (the frame
// address register must be rewritten when the column changes), and every
// transaction pays the fixed TAP-walking / header / pad-frame overhead of
// the port model (config/port.hpp). Back-to-back ConfigOps bound for the
// same device frequently touch overlapping frame sets — consecutive task
// configurations packed bottom-left share columns, and a relocation's op
// sequence revisits its source and destination frames several times. By
// concatenating adjacent ops and applying them as one ConfigOp, each shared
// frame is written once instead of once per op, amortising the
// per-transaction overhead, the full column rewrite (in the column-granular
// JBits regime), and — under kDirtyFrame — letting writes that a later op
// undoes cancel out entirely (the merged op's content delta is zero, so the
// frame is never written at all).
//
// Coalescing preserves semantics: a ConfigOp's actions apply in order,
// concatenation keeps the order across ops, so the fabric end state is
// identical to applying the ops one by one — and ops that write LUT-RAM
// cell configs are applied alone so the controller's live-LUT-RAM column
// check sees exactly the states a per-op sequence would. The batcher
// tracks what the unbatched sequence would have cost (via
// ConfigController::preview) so callers can report the saving honestly;
// under kDirtyFrame that baseline is an estimate — each op is previewed
// against the fabric as it stands at enqueue, before the pending batch has
// applied.
//
// Each incoming op's frame set (config::FrameSet, sorted dense ids) is
// computed exactly once per enqueue and reused for the LUT-RAM legality
// check, the unbatched-baseline preview, the max_columns / max_frames
// gates, and — via the running union the batcher maintains — the flush
// apply itself, which takes the merged set instead of re-mapping the
// concatenated op. All sets live in reusable members, so steady-state
// enqueue/flush allocates nothing.
//
// Threading contract: a batcher (and the ConfigController + Fabric behind
// it) belongs to exactly one device run and is confined to that worker
// thread — nothing here locks (DESIGN.md §8.1). In audit builds every
// transaction boundary (flush and the solo-op path) cross-checks the
// controller's frame-digest mirror against a full recompute
// (ConfigController::audit_image, DESIGN.md §8.4).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "relogic/config/controller.hpp"

namespace relogic::runtime {

struct BatchOptions {
  /// Flush automatically once this many ops are pending. <= 1 disables
  /// coalescing (every op is its own transaction).
  int max_ops = 8;
  /// Flush before a merge would make the coalesced op span more than this
  /// many columns (0 = unlimited). Bounds the atomicity window: one huge
  /// transaction monopolises the port.
  int max_columns = 0;
  /// Flush before a merge would make the coalesced op map more than this
  /// many frames (0 = unlimited). The frame-granular analogue of
  /// max_columns: under kFrame / kDirtyFrame a transaction's port time
  /// scales with frames, not columns, so this is the meaningful atomicity
  /// bound there. Counted on frames_of (the pre-dirty-filter upper bound).
  int max_frames = 0;
  /// Passed through to ConfigController::apply.
  bool allow_lut_ram_columns = false;
};

struct BatchStats {
  int ops_in = 0;        ///< ConfigOps enqueued
  int transactions = 0;  ///< coalesced ConfigOps actually applied
  /// Per-column port transactions issued / frames written / port time, for
  /// the batched stream and for the unbatched baseline (each op applied
  /// alone) on the same workload.
  int column_writes = 0;
  int unbatched_column_writes = 0;
  int frames_written = 0;
  int unbatched_frames = 0;
  /// Frames kDirtyFrame skipped because their contents were unchanged
  /// (0 under kColumn / kFrame). The unbatched figure is the per-op
  /// enqueue-time estimate.
  int frames_skipped = 0;
  int unbatched_frames_skipped = 0;
  SimTime time = SimTime::zero();
  SimTime unbatched_time = SimTime::zero();

  int merged_ops() const { return ops_in - transactions; }
  SimTime saved() const { return unbatched_time - time; }
};

class TransactionBatcher {
 public:
  explicit TransactionBatcher(config::ConfigController& controller,
                              BatchOptions options = {});

  /// Queues an op, coalescing it with the pending batch. May flush first if
  /// the batch would exceed the options' limits. Empty ops are dropped.
  void enqueue(const config::ConfigOp& op);

  /// Applies the pending batch as one transaction. No-op when empty.
  void flush();

  int pending_ops() const { return pending_ops_; }
  const BatchStats& stats() const { return stats_; }
  config::ConfigController& controller() { return *controller_; }

 private:
  config::ConfigController* controller_;
  BatchOptions options_;
  config::ConfigOp pending_;
  /// Running union of the pending batch's frame sets — equals
  /// frames_of(pending_) (widening distributes over unions), so flush()
  /// hands it to apply() instead of re-mapping the merged op. Also powers
  /// the max_columns / max_frames gates at one frames_of per incoming op.
  config::FrameSet pending_frames_;
  /// Scratch reused across enqueues (incoming op's set, gate trial union).
  config::FrameSet op_frames_;
  config::FrameSet merged_scratch_;
  /// Cells written by the pending batch, as sorted cell keys — the
  /// exemption set that makes the enqueue-time LUT-RAM legality check match
  /// the per-op sequence. Duplicates are harmless (binary search).
  std::vector<config::ConfigController::CellKey> pending_rewrites_;
  int pending_ops_ = 0;
  BatchStats stats_;
};

}  // namespace relogic::runtime
