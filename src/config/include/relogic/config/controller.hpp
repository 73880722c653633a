// ConfigController: the partial-reconfiguration engine.
//
// Every structural change to the fabric that would, on the real device, be
// carried by configuration frames is expressed as a ConfigOp — an ordered
// batch of cell writes and routing (PIP) changes applied atomically in one
// configuration-port transaction. The controller:
//
//  * applies the actions to the Fabric (which suppresses identical
//    rewrites, the glitch-free-rewrite property),
//  * maps each action to its controlling frame(s) via FrameMapper,
//  * selects the frames actually written per its WriteGranularity policy:
//    whole columns (the JBits-era regime; the paper's 22.6 ms figure was
//    measured there — see DESIGN.md §6.1), the op's exact frame set, or
//    only the frames whose contents change (exact per-op XOR content
//    deltas built from FrameImage tokens; the FrameImage member mirrors
//    the device's frame contents),
//  * charges the configuration-port timing model and accumulates totals.
//
// Granularity affects only what is written (frames, columns, port time,
// and the frames_skipped accounting); the structural effect on the fabric
// is byte-identical across all three policies.
//
// The data path runs on the flat structures of config/frame_index.hpp and
// has exactly one implementation of each decision (DESIGN.md §9):
//
//  * frame mapping — kColumn collects one marker per touched column and
//    expands each to its contiguous frame run; kFrame / kDirtyFrame mark
//    the op's frames in a per-op word bitmap and expand only the marked
//    words, sorted and deduplicated;
//  * delta accumulation — a cell write's delta is the XOR of its before-
//    and after-token from the CellColumns token mirror, folded per
//    (column, cell) RUN (a cell's frames do not depend on its row); PIP and
//    source deltas go into a flat FrameDeltaMap. Preview and
//    preview_sequence simulate the same accumulation through value overlays
//    of earlier actions instead of writing the fabric;
//  * dirty selection and the digest commit walk the runs and the delta
//    map's touched list, never the whole device;
//  * pricing counts frames per dense column and charges one port
//    transaction per touched column from a port-time table;
//  * the LUT-RAM legality check derives CLB columns from the op's actions;
//  * the digest recompute behind audit_image walks the fabric's own cell
//    storage, independently of the token mirror it audits.
//
// The controller keeps mutable scratch buffers so steady-state ops allocate
// nothing; like the Fabric it drives, a controller must not be shared
// across threads. tests/flatpath_test.cpp pins every output — digests,
// ApplyResult fields, ConfigTotals, frame sets, preview sequences and the
// LUT-RAM verdict — against an independent set/map reference at every
// granularity.
//
// The controller performs *configuration*; it never touches user state. The
// interaction between configuration writes and live user logic is what the
// relocation engine (relogic::reloc) choreographs on top of this class.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <unordered_map>
#include <variant>
#include <vector>

#include "relogic/common/time.hpp"
#include "relogic/config/cell_columns.hpp"
#include "relogic/config/frame.hpp"
#include "relogic/config/frame_image.hpp"
#include "relogic/config/frame_index.hpp"
#include "relogic/config/granularity.hpp"
#include "relogic/config/kernel.hpp"
#include "relogic/config/port.hpp"
#include "relogic/fabric/fabric.hpp"
#include "relogic/obs/trace.hpp"

namespace relogic::config {

/// Write one logic cell's configuration.
struct CellWrite {
  ClbCoord clb;
  int cell = 0;
  fabric::LogicCellConfig cfg;
};

/// Turn one PIP on (add=true) or off for a net.
struct EdgeChange {
  fabric::NetId net = fabric::kNoNet;
  fabric::RouteEdge edge;
  bool add = true;
};

/// Attach or detach a net source (cell output pin / input pad).
struct SourceChange {
  fabric::NetId net = fabric::kNoNet;
  fabric::NodeId node = fabric::kInvalidNode;
  bool attach = true;
};

using ConfigAction = std::variant<CellWrite, EdgeChange, SourceChange>;

/// One partial-reconfiguration transaction.
struct ConfigOp {
  std::string label;
  std::vector<ConfigAction> actions;

  ConfigOp() = default;
  explicit ConfigOp(std::string label_) : label(std::move(label_)) {}

  ConfigOp& write_cell(ClbCoord clb, int cell,
                       const fabric::LogicCellConfig& cfg) {
    actions.push_back(CellWrite{clb, cell, cfg});
    return *this;
  }
  ConfigOp& clear_cell(ClbCoord clb, int cell) {
    actions.push_back(CellWrite{clb, cell, fabric::LogicCellConfig{}});
    return *this;
  }
  ConfigOp& add_edge(fabric::NetId net, fabric::RouteEdge e) {
    actions.push_back(EdgeChange{net, e, true});
    return *this;
  }
  ConfigOp& remove_edge(fabric::NetId net, fabric::RouteEdge e) {
    actions.push_back(EdgeChange{net, e, false});
    return *this;
  }
  ConfigOp& add_path(fabric::NetId net, const std::vector<fabric::NodeId>& path);
  ConfigOp& remove_path(fabric::NetId net,
                        const std::vector<fabric::NodeId>& path);
  ConfigOp& attach_source(fabric::NetId net, fabric::NodeId node) {
    actions.push_back(SourceChange{net, node, true});
    return *this;
  }
  ConfigOp& detach_source(fabric::NetId net, fabric::NodeId node) {
    actions.push_back(SourceChange{net, node, false});
    return *this;
  }
  bool empty() const { return actions.empty(); }
};

/// Outcome of applying one ConfigOp.
struct ApplyResult {
  int frames_written = 0;
  /// Frames of the op's exact frame set that kDirtyFrame skipped because
  /// their contents were unchanged (always 0 under kColumn / kFrame).
  int frames_skipped = 0;
  /// Port transactions issued: the frame-address register must be rewritten
  /// whenever the column changes, so each touched column is one transaction
  /// paying the full TAP/header/pad overhead of the port model.
  int columns_touched = 0;
  SimTime time = SimTime::zero();
  /// Number of actions that changed fabric state (the rest were identical
  /// rewrites or redundant routing changes).
  int effective_actions = 0;
};

/// Cumulative controller statistics.
struct ConfigTotals {
  int ops = 0;
  int frames_written = 0;
  int frames_skipped = 0;
  /// Total per-column port transactions (see ApplyResult::columns_touched).
  int columns_touched = 0;
  SimTime time = SimTime::zero();
};

class ConfigController {
 public:
  /// The optional 4th argument is ignored; it remains for source
  /// compatibility only (see kernel.hpp).
  ConfigController(fabric::Fabric& fabric, const ConfigPort& port,
                   WriteGranularity granularity,
                   const KernelBackend* /*unused*/ = nullptr);

  /// Legacy two-regime constructor: `column_granular` selects whole-column
  /// rewrites (kColumn, the JBits regime the paper measured) versus minimal
  /// frame-level writes (kFrame).
  ConfigController(fabric::Fabric& fabric, const ConfigPort& port,
                   bool column_granular = true)
      : ConfigController(fabric, port,
                         column_granular ? WriteGranularity::kColumn
                                         : WriteGranularity::kFrame) {}

  fabric::Fabric& fabric() { return *fabric_; }
  const fabric::Fabric& fabric() const { return *fabric_; }
  const FrameMapper& mapper() const { return mapper_; }
  const ConfigPort& port() const { return *port_; }
  WriteGranularity granularity() const { return granularity_; }
  bool column_granular() const {
    return granularity_ == WriteGranularity::kColumn;
  }
  /// The dense frame-id addressing of this device's geometry.
  const FrameIndex& index() const { return index_; }
  /// Shadow copy of the device's frame contents (dirty-frame diffing).
  const FrameImage& image() const { return image_; }

  /// Frames a ConfigOp would write, without applying it. Widened to whole
  /// columns under kColumn; the exact mapped frame set otherwise (for
  /// kDirtyFrame this is the upper bound before dirty filtering). The
  /// out-parameter form lets hot callers reuse one FrameSet allocation.
  void frames_of(const ConfigOp& op, FrameSet& out) const;
  FrameSet frames_of(const ConfigOp& op) const {
    FrameSet out;
    frames_of(op, out);
    return out;
  }

  /// Sequence-aware preview: prices `ops` as if applied in order. The value
  /// overlay of earlier ops persists across the sequence, so under
  /// kDirtyFrame a later op's dirty set reflects what earlier ops already
  /// wrote — an op rewriting an earlier op's content prices as skipped,
  /// exactly as applying the sequence would charge it. Invokes
  /// `visit(index, result, written)` per op, where `written` is the frame
  /// set apply would write at that point (valid only for the duration of
  /// the callback). The BitstreamWriter renders and prices through this so
  /// `--script` / `--out` totals match ConfigTotals for arbitrary op
  /// sequences, not just independent ops.
  void preview_sequence(
      const std::vector<ConfigOp>& ops,
      const std::function<void(std::size_t, const ApplyResult&,
                               const FrameSet&)>& visit) const;

  /// Full frame count a readback of the op's footprint must fetch. Readback
  /// is never dirty-skippable — verifying a frame requires reading it
  /// whether or not the preceding write changed its bytes — so this is the
  /// frames_of size at every granularity (whole columns under kColumn).
  /// Sweep pricing (health::RovingTester) uses this instead of write-side
  /// counters so readback cost is identical across kFrame and kDirtyFrame.
  int readback_frames(const ConfigOp& op) const;

  /// Distinct columns a (normalized) frame set spans — one pass.
  int column_count(const FrameSet& frames) const;

  /// Frame/column/port-time accounting of an op without applying it (the
  /// effective_actions field is left 0 — effectiveness is only known at
  /// apply time). Under kDirtyFrame the dirty set is estimated against the
  /// *current* fabric and shadow image, exactly what apply would write if
  /// it ran now. Used by the transaction batcher to price the unbatched
  /// baseline of a coalesced transaction.
  ApplyResult preview(const ConfigOp& op) const;

  /// preview(op) with the frame mapping reused from frames_of(op) — the
  /// granularity-aware variant of the overload above (dirty filtering
  /// still applies under kDirtyFrame).
  ApplyResult preview(const ConfigOp& op, const FrameSet& frames) const;

  /// Applies the op to the fabric and charges the port timing model.
  /// `allow_lut_ram_columns` waives the live-LUT-RAM column rule — legal
  /// only while the affected clock domain is stopped (paper, Sec. 2: the
  /// system must be halted to guarantee data coherency).
  ApplyResult apply(const ConfigOp& op, bool allow_lut_ram_columns = false);

  /// apply() with the frame mapping reused from frames_of(op) — for callers
  /// (the transaction batcher) that already maintain the op's frame set.
  ApplyResult apply(const ConfigOp& op, const FrameSet& frames,
                    bool allow_lut_ram_columns);

  /// Packed {row, col, cell} key of the LUT-RAM exemption sets, 20 bits
  /// per field. A (row, col * 4 + cell) packing was used once; it aliased
  /// distinct cells on any geometry with cells_per_clb > 4 (e.g. col 0
  /// cell 4 and col 1 cell 0), silently exempting live LUT-RAM cells from
  /// the column check. Separate fields are alias-free for every geometry.
  using CellKey = std::uint64_t;
  static CellKey cell_key(int row, int col, int cell) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(row)) << 40) |
           (static_cast<std::uint64_t>(static_cast<std::uint32_t>(col)) << 20) |
           static_cast<std::uint64_t>(static_cast<std::uint32_t>(cell));
  }

  /// LUT-RAM legality (paper, Sec. 2): throws IllegalOperationError if the
  /// op touches a CLB column containing a used LUT-RAM cell that the op
  /// itself does not rewrite. `extra_rewritten` — sorted cell_key()s —
  /// extends the exemption set with cells known to be rewritten before
  /// this op applies (the transaction batcher passes its pending batch's
  /// writes so each queued op is checked exactly as the per-op sequence
  /// would be). Columns are derived from the op's actions: the CLB-column
  /// set of frames_of(op) is the same at every granularity, since widening
  /// only adds frames within columns the op already touches.
  void check_lut_ram_columns(
      const ConfigOp& op,
      const std::vector<CellKey>* extra_rewritten = nullptr) const;

  const ConfigTotals& totals() const { return totals_; }
  void reset_totals() { totals_ = ConfigTotals{}; }

  // ---- invariant audit (DESIGN.md §8.4) -------------------------------------
  /// Cross-checks the incremental FrameImage digest mirror against a full
  /// recompute from fabric ground truth (every cell config, live PIP and
  /// attached source, relative to the fabric state at controller
  /// construction — fault installation happens before construction, so the
  /// baseline folds injected corruption in). Throws AuditError on the first
  /// divergent frame: either the incremental delta path dropped/duplicated
  /// a token, or something mutated the fabric behind the controller's back
  /// — both contract violations. Always compiled; periodic call sites
  /// (TransactionBatcher::flush) are gated on RELOGIC_AUDIT.
  void audit_image() const;

  /// Attaches a trace lane: every apply() emits one 'X' span on the
  /// cumulative port-busy clock (ts = totals().time before the op) with
  /// granularity and frame accounting as args. Default-constructed handle
  /// (the default) disables tracing at the cost of one branch per apply.
  void set_trace(obs::TraceTrack track) { trace_ = track; }

 private:
  /// The frame controlling a net-source attach/detach (output mux / pad).
  FrameAddress source_frame(const SourceChange& sc) const;
  /// The one frame a PIP or source action maps to.
  FrameAddress net_frame(const ConfigAction& a) const;
  /// Throws ContractError on an out-of-range cell write: arithmetic id
  /// derivation must not spill into a neighbouring column region.
  void check_cell_bounds(const CellWrite& cw) const;

  /// apply() body. `frames` supplies |frames_of(op)| for frames_skipped and
  /// the kColumn / kFrame pricing; nullptr (kDirtyFrame only) counts it
  /// instead — frames_per_cell per distinct run plus distinct net frames —
  /// without materializing ids.
  ApplyResult apply_op(const ConfigOp& op, const FrameSet* frames,
                       bool allow_lut_ram_columns);
  /// kDirtyFrame preview body (same `frames` convention as apply_op).
  ApplyResult preview_dirty(const ConfigOp& op, const FrameSet* frames) const;

  // ---- per-op state ---------------------------------------------------------
  /// Starts a new op: empties the runs, the net delta map, the frame marks
  /// and the net frame count.
  void begin_op() const;
  /// Index of the run of (col, cell) in this op, created on first use.
  std::size_t run_index(int col, int cell) const;
  /// Marks a frame in the per-op bitmap; true when it was not yet marked.
  bool mark_frame(std::int32_t id) const;
  /// Zeroes the marked words (O(op), not O(device)).
  void clear_marks() const;
  /// Resets the sequence-persistent value overlays of the simulation.
  void clear_overlays() const;
  /// Accumulates the deltas the op *would* produce into the runs and the
  /// net delta map, reading before-values through the overlays (callers
  /// clear them to choose single-op or sequence semantics). Injected
  /// configuration-memory faults are not modelled here — apply() observes
  /// the exact after-values instead. `count_frames` also marks the op's
  /// net frames for the counted |frames_of(op)|.
  void simulate(const ConfigOp& op, bool count_frames) const;

  // ---- dirty selection and pricing -----------------------------------------
  /// Prices the op's non-zero runs and net deltas. When `written` is
  /// non-null it receives the dirty frame ids, sorted.
  ApplyResult price_dirty(FrameSet* written) const;
  /// Prices every frame of a sorted frame set.
  ApplyResult price_set(const FrameSet& frames) const;
  /// Adds `frames` frames of dense column `col` to the pending charge.
  void charge(std::int32_t col, int frames) const;
  /// Closes the pending charge: frames, columns and one port transaction
  /// per charged column.
  ApplyResult price_charged() const;

  /// Absolute per-frame content digest of the fabric as it stands: XOR of
  /// the diff-from-default token of every non-default cell config plus the
  /// tokens of every live PIP and attached source. audit_image compares
  /// image_ against recompute(now) ^ recompute(construction).
  void recompute_digests(std::vector<std::uint64_t>& out) const;

  fabric::Fabric* fabric_;
  const ConfigPort* port_;
  FrameMapper mapper_;
  WriteGranularity granularity_;
  FrameIndex index_;
  FrameImage image_;
  CellColumns columns_;
  ConfigTotals totals_;
  obs::TraceTrack trace_;
  /// Fabric content digests at construction — the erased-state baseline the
  /// image's deltas are relative to (see audit_image). One walk at ctor.
  std::vector<std::uint64_t> audit_baseline_;
  /// Dense column id per frame id (pricing reads it per frame).
  std::vector<std::uint16_t> col_of_;
  /// Port write_time of one transaction by its frame count, tabulated at
  /// construction. The port model is a pure function of (frames,
  /// frame_bits), so the table returns exactly what calling it would.
  std::vector<SimTime> time_of_run_;

  // ---- reusable scratch (not thread-safe; see the header comment) ---------
  mutable FrameSet frames_scratch_;   ///< apply(op) / preview(op) mapping
  mutable FrameSet dirty_scratch_;    ///< preview_sequence written set
  mutable FrameSet columns_scratch_;  ///< distinct column markers (kColumn)
  /// Net (PIP / source) deltas of the current op. Cell deltas live in the
  /// runs below; the two cover disjoint frame ids (see
  /// FrameMapper::first_routing_frame).
  mutable FrameDeltaMap deltas_scratch_;
  /// Per-op frame bitmap + the list of its non-zero words.
  mutable std::vector<std::uint64_t> op_words_;
  mutable std::vector<std::int32_t> op_word_marks_;
  /// Distinct net frames marked in counting mode.
  mutable int net_frames_ = 0;
  /// Runs: one entry per distinct (col, cell) the op touches. run_delta_
  /// accumulates before ^ after per write, which telescopes to op-entry
  /// token ^ final token per touched cell (0 when writes cancel or rewrite
  /// identically — the same XOR merge a per-frame map performs). runkey_*
  /// is indexed by col * cells_per_clb + cell and epoch-stamped per op.
  mutable std::vector<std::int32_t> run_base_;
  mutable std::vector<std::uint64_t> run_delta_;
  mutable std::vector<std::int32_t> run_col_;  ///< dense column of the run
  mutable std::vector<std::int32_t> runkey_idx_;
  mutable std::vector<std::uint32_t> runkey_stamp_;
  mutable std::uint32_t op_epoch_ = 1;
  /// Pending charge: frames per dense column (0 = not charged yet) and the
  /// charged columns. Visit order does not matter — the frame and column
  /// counts and the SimTime sum are commutative.
  mutable std::vector<std::int32_t> col_count_;
  mutable std::vector<std::int32_t> col_list_;
  /// Value overlays of earlier actions for simulate(): cell tokens per slot
  /// (epoch-stamped, slot layout = CellColumns), PIP and source states in
  /// hash maps (reused, so buckets are allocated once; preview_sequence
  /// persists them across a whole op sequence). Token equality stands in
  /// for config equality — a colliding pair would produce delta 0 either
  /// way.
  struct CellOverlay {
    std::uint64_t tok;
    std::uint32_t stamp;
  };
  mutable std::vector<CellOverlay> overlay_;
  mutable std::uint32_t overlay_epoch_ = 1;
  struct EdgeKey {
    fabric::NetId net;
    fabric::NodeId from;
    fabric::NodeId to;
    bool operator==(const EdgeKey&) const = default;
  };
  struct EdgeKeyHash {
    std::size_t operator()(const EdgeKey& k) const {
      std::uint64_t x = (static_cast<std::uint64_t>(k.net) << 32) ^
                        (static_cast<std::uint64_t>(k.from) << 16) ^ k.to;
      x ^= x >> 33;
      x *= 0xff51afd7ed558ccdull;
      x ^= x >> 33;
      return static_cast<std::size_t>(x);
    }
  };
  mutable std::unordered_map<EdgeKey, bool, EdgeKeyHash> overlay_edges_;
  mutable std::unordered_map<std::uint64_t, bool> overlay_sources_;
  /// check_lut_ram_columns: the op's live-LUT-RAM CLB columns and its own
  /// rewrites (sorted cell_key()s).
  mutable std::vector<int> ram_cols_;
  mutable std::vector<CellKey> rewrites_scratch_;
};

}  // namespace relogic::config
