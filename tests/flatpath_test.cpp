// Flat config-plane data-path equivalence.
//
// PR 5 rebuilt ConfigController / FrameImage / TransactionBatcher on flat,
// index-addressable structures (config/frame_index.hpp): dense frame ids,
// sorted-vector frame sets, a flat epoch-cleared delta map, and one-pass
// per-column pricing. These tests pin the refactor to the previous
// std::set<FrameAddress> / std::map<FrameAddress, uint64_t> semantics with
// a literal reference implementation of the old algorithms, driven in
// lockstep on randomized op streams — including the 8-cells-per-CLB
// tiny_dense geometry whose frame layout exercises non-Virtex cell counts.
//
// The controller has exactly one implementation of each config-plane
// decision (DESIGN.md §9), and this reference is its independent check:
// per-op frame mapping, preview, apply, digests and totals; preview_sequence
// against the reference applying the same ops in order; and the LUT-RAM
// verdict against a check that derives its columns from the mapped frames.
// Each runs at all three granularities on tiny, tiny_dense and the paper's
// XCV200.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "relogic/common/rng.hpp"
#include "relogic/config/controller.hpp"
#include "relogic/config/frame_image.hpp"
#include "relogic/config/frame_index.hpp"
#include "relogic/config/port.hpp"

namespace relogic {
namespace {

using config::ApplyResult;
using config::ColumnType;
using config::ConfigOp;
using config::FrameAddress;
using config::FrameDeltaMap;
using config::FrameImage;
using config::FrameIndex;
using config::FrameSet;
using config::WriteGranularity;
using fabric::DeviceGeometry;
using fabric::Fabric;
using fabric::LogicCellConfig;

// ---- the flat primitives ----------------------------------------------------

TEST(FrameIndexTest, BijectionCoversTheWholeUniverseInAddressOrder) {
  for (const auto& geom :
       {DeviceGeometry::tiny(6, 6), DeviceGeometry::tiny_dense(6, 6),
        DeviceGeometry::xcv200()}) {
    const FrameIndex index(geom);
    ASSERT_EQ(index.total_frames(), geom.total_frames());
    FrameAddress prev{};
    for (std::int32_t id = 0; id < index.total_frames(); ++id) {
      const FrameAddress f = index.address(id);
      EXPECT_EQ(index.id(f), id);
      // Dense ids enumerate addresses in FrameAddress's own <=> order, so a
      // sorted id set iterates exactly as the old std::set<FrameAddress>.
      if (id > 0) {
        EXPECT_LT(prev, f);
      }
      prev = f;
      // Column ids are monotone and group-contiguous.
      if (id > 0) {
        EXPECT_GE(index.column_of(id), index.column_of(id - 1));
      }
    }
    EXPECT_EQ(index.column_of(index.total_frames() - 1),
              index.total_columns() - 1);
  }
}

TEST(FrameSetTest, NormalizeUnionContainsFilter) {
  FrameSet a;
  a.push(7);
  a.push(3);
  a.push(7);
  a.push_run(10, 3);
  a.normalize();
  ASSERT_EQ(a.size(), 5u);
  EXPECT_TRUE(a.contains(3));
  EXPECT_TRUE(a.contains(12));
  EXPECT_FALSE(a.contains(9));

  FrameSet b;
  b.push(3);
  b.push(9);
  b.normalize();
  a.union_with(b);
  ASSERT_EQ(a.size(), 6u);
  EXPECT_TRUE(a.contains(9));
  const std::vector<std::int32_t> want{3, 7, 9, 10, 11, 12};
  EXPECT_TRUE(std::equal(a.begin(), a.end(), want.begin(), want.end()));

  a.filter([](std::int32_t id) { return id % 2 == 1; });
  ASSERT_EQ(a.size(), 4u);
  EXPECT_FALSE(a.contains(10));
  EXPECT_TRUE(a.contains(11));
}

TEST(FrameDeltaMapTest, XorAccumulatesAndClearIsCheap) {
  FrameDeltaMap m;
  m.reset(64);
  m.xor_delta(5, 0xff);
  m.xor_delta(5, 0x0f);
  m.xor_delta(9, 0x1);
  m.xor_delta(9, 0x1);  // cancels back to zero but stays touched
  m.xor_delta(3, 0);    // zero delta: never recorded
  EXPECT_EQ(m.delta(5), 0xf0u);
  EXPECT_EQ(m.delta(9), 0u);
  EXPECT_EQ(m.delta(3), 0u);
  ASSERT_EQ(m.touched().size(), 2u);

  m.clear();
  EXPECT_EQ(m.delta(5), 0u);
  EXPECT_TRUE(m.touched().empty());
  m.xor_delta(5, 0x2);
  EXPECT_EQ(m.delta(5), 0x2u);
}

// ---- reference implementation of the old set/map semantics ------------------

/// The pre-flat-path algorithms, verbatim: std::set frame mapping with
/// column widening, std::map overlay delta simulation, per-column pricing
/// that rescans the whole frame set per column, and a std::map shadow
/// image. Shares the controller's fabric (read-only).
class ReferencePath {
 public:
  ReferencePath(const Fabric& fab, const config::ConfigPort& port,
                WriteGranularity gran)
      : fab_(&fab), port_(&port), mapper_(fab.geometry()), gran_(gran) {}

  std::set<FrameAddress> frames_of(const ConfigOp& op) const {
    std::set<FrameAddress> frames;
    const auto& graph = fab_->graph();
    for (const config::ConfigAction& a : op.actions) {
      if (const auto* cw = std::get_if<config::CellWrite>(&a)) {
        for (const FrameAddress& f : mapper_.cell_frames(cw->clb, cw->cell))
          frames.insert(f);
      } else if (const auto* ec = std::get_if<config::EdgeChange>(&a)) {
        frames.insert(mapper_.pip_frame(graph, ec->edge));
      } else if (const auto* sc = std::get_if<config::SourceChange>(&a)) {
        frames.insert(source_frame(*sc));
      }
    }
    if (gran_ != WriteGranularity::kColumn) return frames;
    std::set<FrameAddress> widened;
    std::set<std::int16_t> clb_cols;
    std::set<std::int16_t> iob_cols;
    for (const FrameAddress& f : frames) {
      switch (f.type) {
        case ColumnType::kClb:
          clb_cols.insert(f.column);
          break;
        case ColumnType::kIob:
          iob_cols.insert(f.column);
          break;
        case ColumnType::kCenter:
          widened.insert(f);
          break;
      }
    }
    const auto& g = fab_->geometry();
    for (std::int16_t c : clb_cols) {
      for (int fr = 0; fr < g.frames_per_clb_column; ++fr)
        widened.insert(
            FrameAddress{ColumnType::kClb, c, static_cast<std::int16_t>(fr)});
    }
    for (std::int16_t c : iob_cols) {
      for (int fr = 0; fr < g.frames_per_iob_column; ++fr)
        widened.insert(
            FrameAddress{ColumnType::kIob, c, static_cast<std::int16_t>(fr)});
    }
    return widened;
  }

  /// Overlay-simulated deltas against the *current* fabric (the op has not
  /// applied yet). With no injected faults these equal apply's observed
  /// before/after deltas, so one computation serves preview and apply.
  std::map<FrameAddress, std::uint64_t> deltas_of(const ConfigOp& op) const {
    std::map<FrameAddress, std::uint64_t> deltas;
    std::map<std::tuple<int, int, int>, LogicCellConfig> cells;
    std::map<std::pair<fabric::NetId, fabric::RouteEdge>, bool> edges;
    std::map<std::pair<fabric::NetId, fabric::NodeId>, bool> sources;
    for (const config::ConfigAction& a : op.actions) {
      if (const auto* cw = std::get_if<config::CellWrite>(&a)) {
        const std::tuple<int, int, int> key{cw->clb.row, cw->clb.col,
                                            cw->cell};
        const auto it = cells.find(key);
        const LogicCellConfig before =
            it != cells.end() ? it->second : fab_->cell(cw->clb, cw->cell);
        cells[key] = cw->cfg;
        if (before == cw->cfg) continue;
        const std::uint64_t d = FrameImage::cell_token(cw->clb.row, before) ^
                                FrameImage::cell_token(cw->clb.row, cw->cfg);
        for (const FrameAddress& f : mapper_.cell_frames(cw->clb, cw->cell))
          deltas[f] ^= d;
      } else if (const auto* ec = std::get_if<config::EdgeChange>(&a)) {
        const auto key = std::make_pair(ec->net, ec->edge);
        const auto it = edges.find(key);
        const bool on = it != edges.end()
                            ? it->second
                            : (fab_->net_exists(ec->net) &&
                               fab_->net(ec->net).has_edge(ec->edge));
        edges[key] = ec->add;
        if (on == ec->add) continue;
        deltas[mapper_.pip_frame(fab_->graph(), ec->edge)] ^=
            FrameImage::edge_token(ec->edge);
      } else if (const auto* sc = std::get_if<config::SourceChange>(&a)) {
        const auto key = std::make_pair(sc->net, sc->node);
        const auto it = sources.find(key);
        const bool on = it != sources.end()
                            ? it->second
                            : (fab_->net_exists(sc->net) &&
                               fab_->net(sc->net).has_source(sc->node));
        sources[key] = sc->attach;
        if (on == sc->attach) continue;
        deltas[source_frame(*sc)] ^= FrameImage::source_token(sc->node);
      }
    }
    return deltas;
  }

  ApplyResult price_set(const std::set<FrameAddress>& frames) const {
    ApplyResult result;
    result.frames_written = static_cast<int>(frames.size());
    std::set<std::pair<ColumnType, std::int16_t>> columns;
    for (const FrameAddress& f : frames) columns.insert({f.type, f.column});
    result.columns_touched = static_cast<int>(columns.size());
    const int frame_bits = fab_->geometry().frame_length_bits();
    for (const auto& col : columns) {
      int n = 0;
      for (const FrameAddress& f : frames)
        if (f.type == col.first && f.column == col.second) ++n;
      result.time += port_->write_time(n, frame_bits);
    }
    return result;
  }

  ApplyResult price(const std::set<FrameAddress>& frames,
                    const std::map<FrameAddress, std::uint64_t>& deltas) const {
    if (gran_ != WriteGranularity::kDirtyFrame) return price_set(frames);
    std::set<FrameAddress> dirty;
    for (const auto& [f, d] : deltas)
      if (d != 0) dirty.insert(f);
    ApplyResult result = price_set(dirty);
    result.frames_skipped =
        static_cast<int>(frames.size()) - result.frames_written;
    return result;
  }

  /// Commits an op's deltas to the reference shadow image.
  void commit(const std::map<FrameAddress, std::uint64_t>& deltas) {
    for (const auto& [f, d] : deltas) {
      if (d == 0) continue;
      image_[f] ^= d;
      touched_.insert(f);
    }
  }

  std::uint64_t digest(const FrameAddress& f) const {
    const auto it = image_.find(f);
    return it == image_.end() ? 0 : it->second;
  }
  std::size_t tracked() const { return touched_.size(); }
  const std::set<FrameAddress>& touched() const { return touched_; }

 private:
  FrameAddress source_frame(const config::SourceChange& sc) const {
    const auto& graph = fab_->graph();
    const auto info = graph.info(sc.node);
    if (info.kind == fabric::NodeKind::kPad) {
      const int col = info.tile.col < fab_->geometry().clb_cols / 2 ? 0 : 1;
      return FrameAddress{ColumnType::kIob, static_cast<std::int16_t>(col), 0};
    }
    return mapper_.pip_frame(graph, fabric::RouteEdge{sc.node, sc.node});
  }

  const Fabric* fab_;
  const config::ConfigPort* port_;
  config::FrameMapper mapper_;
  WriteGranularity gran_;
  std::map<FrameAddress, std::uint64_t> image_;
  std::set<FrameAddress> touched_;
};

std::vector<FrameAddress> to_addresses(const FrameSet& set,
                                       const FrameIndex& index) {
  std::vector<FrameAddress> out;
  for (const std::int32_t id : set) out.push_back(index.address(id));
  return out;
}

ConfigOp random_op(Rng& rng, const DeviceGeometry& geom, fabric::NetId net,
                   const Fabric& fab, int step) {
  ConfigOp op("op" + std::to_string(step));
  const auto& g = fab.graph();
  const int actions = 1 + static_cast<int>(rng.next_u64() % 4);
  for (int a = 0; a < actions; ++a) {
    const ClbCoord clb{static_cast<int>(rng.next_u64() %
                                        static_cast<unsigned>(geom.clb_rows)),
                       static_cast<int>(rng.next_u64() %
                                        static_cast<unsigned>(geom.clb_cols))};
    switch (rng.next_u64() % 5) {
      case 0:
        op.clear_cell(clb, static_cast<int>(
                               rng.next_u64() %
                               static_cast<unsigned>(geom.cells_per_clb)));
        break;
      case 1:
      case 2: {
        LogicCellConfig cfg;
        cfg.used = true;
        // Small alphabet so identical rewrites actually happen.
        cfg.lut = static_cast<std::uint16_t>(0x1111 * (1 + rng.next_u64() % 4));
        op.write_cell(clb,
                      static_cast<int>(rng.next_u64() %
                                       static_cast<unsigned>(geom.cells_per_clb)),
                      cfg);
        break;
      }
      case 3: {
        // Toggle a PIP on the shared net (routing pool models 4 cells of
        // pins per tile, so edge endpoints stay on cells 0..3).
        const auto src = g.out_pin(clb, static_cast<int>(rng.next_u64() % 4),
                                   false);
        const auto wire = g.single(
            clb, static_cast<fabric::Dir>(rng.next_u64() % 4),
            static_cast<int>(rng.next_u64() % 2));
        const fabric::RouteEdge e{src, wire};
        const bool on = fab.net_exists(net) && fab.net(net).has_edge(e);
        if (on)
          op.remove_edge(net, e);
        else
          op.add_edge(net, e);
        break;
      }
      case 4: {
        const auto node = g.out_pin(clb, static_cast<int>(rng.next_u64() % 4),
                                    false);
        const bool on = fab.net_exists(net) && fab.net(net).has_source(node);
        if (on)
          op.detach_source(net, node);
        else
          op.attach_source(net, node);
        break;
      }
    }
  }
  return op;
}

DeviceGeometry geometry(int geom_sel) {
  return geom_sel == 0   ? DeviceGeometry::tiny(6, 6)
         : geom_sel == 1 ? DeviceGeometry::tiny_dense(6, 6)
                         : DeviceGeometry::xcv200();
}

const char* geometry_name(int geom_sel) {
  return geom_sel == 0 ? "tiny" : geom_sel == 1 ? "tiny_dense" : "xcv200";
}

std::uint64_t geometry_seed(int geom_sel) {
  return geom_sel == 1 ? 0xD15Eu : geom_sel == 2 ? 0x2C00u : 0xF1A7u;
}

void expect_same_result(const ApplyResult& got, const ApplyResult& want,
                        const std::string& where) {
  EXPECT_EQ(got.frames_written, want.frames_written) << where;
  EXPECT_EQ(got.frames_skipped, want.frames_skipped) << where;
  EXPECT_EQ(got.columns_touched, want.columns_touched) << where;
  EXPECT_EQ(got.time, want.time) << where;
}

/// Applies an op's actions straight to a fabric, bypassing the controller:
/// the structural half of ConfigController::apply, for a mirror fabric the
/// reference reads.
void apply_structurally(Fabric& fab, const ConfigOp& op) {
  for (const config::ConfigAction& a : op.actions) {
    if (const auto* cw = std::get_if<config::CellWrite>(&a)) {
      fab.set_cell_config(cw->clb, cw->cell, cw->cfg);
    } else if (const auto* ec = std::get_if<config::EdgeChange>(&a)) {
      const bool on = fab.net(ec->net).has_edge(ec->edge);
      if (ec->add && !on) fab.add_edge(ec->net, ec->edge);
      if (!ec->add && on) fab.remove_edge(ec->net, ec->edge);
    } else if (const auto* sc = std::get_if<config::SourceChange>(&a)) {
      const bool on = fab.net(sc->net).has_source(sc->node);
      if (sc->attach && !on) fab.attach_source(sc->net, sc->node);
      if (!sc->attach && on) fab.detach_source(sc->net, sc->node);
    }
  }
}

// Sweep axes: geometry selector (tiny / tiny_dense / the paper's XCV200)
// and write granularity.
class FlatPathEquivalence
    : public ::testing::TestWithParam<std::tuple<int, WriteGranularity>> {};

std::string sweep_name(
    const ::testing::TestParamInfo<std::tuple<int, WriteGranularity>>& p) {
  return std::string(geometry_name(std::get<0>(p.param))) + "_" +
         config::to_string(std::get<1>(p.param));
}

TEST_P(FlatPathEquivalence, MatchesSetMapReferenceOnRandomStreams) {
  const auto& [geom_sel, gran] = GetParam();
  const DeviceGeometry geom = geometry(geom_sel);
  Fabric fab(geom);
  config::BoundaryScanPort port;
  config::ConfigController ctl(fab, port, gran);
  ReferencePath ref(fab, port, gran);
  const auto net = fab.create_net("n");

  Rng rng(geometry_seed(geom_sel));
  ApplyResult ref_totals;
  for (int step = 0; step < 150; ++step) {
    const ConfigOp op = random_op(rng, geom, net, fab, step);

    // Reference results against the current fabric, before anything applies.
    const std::set<FrameAddress> ref_frames = ref.frames_of(op);
    const auto ref_deltas = ref.deltas_of(op);
    const ApplyResult ref_result = ref.price(ref_frames, ref_deltas);

    // Frame mapping: same addresses, same order.
    const FrameSet frames = ctl.frames_of(op);
    const auto addrs = to_addresses(frames, ctl.index());
    ASSERT_EQ(addrs.size(), ref_frames.size()) << "step " << step;
    EXPECT_TRUE(std::equal(addrs.begin(), addrs.end(), ref_frames.begin()))
        << "step " << step;

    // Preview agrees field by field, counted and with the frames given.
    const std::string where = "step " + std::to_string(step);
    expect_same_result(ctl.preview(op), ref_result, where);
    expect_same_result(ctl.preview(op, frames), ref_result, where);

    // Apply agrees too (no injected faults, so the reference's simulated
    // deltas equal apply's observed ones), and the shadow images stay in
    // lockstep.
    const ApplyResult got = ctl.apply(op);
    ref.commit(ref_deltas);
    expect_same_result(got, ref_result, where);

    ref_totals.frames_written += ref_result.frames_written;
    ref_totals.frames_skipped += ref_result.frames_skipped;
    ref_totals.columns_touched += ref_result.columns_touched;
    ref_totals.time += ref_result.time;
  }

  // Shadow image: digest-identical on every frame the stream ever touched,
  // and the same ever-touched count.
  EXPECT_EQ(ctl.image().tracked_frames(), ref.tracked());
  for (const FrameAddress& f : ref.touched())
    EXPECT_EQ(ctl.image().digest(f), ref.digest(f)) << f.to_string();

  // Running totals: identical accounting over the whole stream.
  EXPECT_EQ(ctl.totals().frames_written, ref_totals.frames_written);
  EXPECT_EQ(ctl.totals().frames_skipped, ref_totals.frames_skipped);
  EXPECT_EQ(ctl.totals().columns_touched, ref_totals.columns_touched);
  EXPECT_EQ(ctl.totals().time, ref_totals.time);
}

TEST_P(FlatPathEquivalence, PreviewSequenceMatchesReferenceAppliedInOrder) {
  const auto& [geom_sel, gran] = GetParam();
  const DeviceGeometry geom = geometry(geom_sel);
  config::BoundaryScanPort port;
  // `fab` carries the controller under test, which only previews each
  // sequence before applying it; `mirror` is advanced op by op, so the
  // reference reads exactly the state each op of the sequence would see.
  Fabric fab(geom);
  Fabric mirror(geom);
  config::ConfigController ctl(fab, port, gran);
  ReferencePath ref(mirror, port, gran);
  const auto net = fab.create_net("n");
  ASSERT_EQ(mirror.create_net("n"), net);

  Rng rng(geometry_seed(geom_sel) ^ 0x5E9u);
  int step = 0;
  int skipped = 0;
  for (int seq = 0; seq < 25; ++seq) {
    // Ops drawn against the state before the sequence, so later ops often
    // rewrite or undo what earlier ones would write.
    std::vector<ConfigOp> ops;
    const int len = 2 + static_cast<int>(rng.next_u64() % 6);
    for (int k = 0; k < len; ++k)
      ops.push_back(random_op(rng, geom, net, fab, step++));

    std::vector<ApplyResult> got;
    std::vector<std::vector<FrameAddress>> got_written;
    ctl.preview_sequence(ops, [&](std::size_t i, const ApplyResult& r,
                                  const FrameSet& written) {
      EXPECT_EQ(i, got.size());
      got.push_back(r);
      got_written.push_back(to_addresses(written, ctl.index()));
    });
    ASSERT_EQ(got.size(), ops.size());

    for (std::size_t i = 0; i < ops.size(); ++i) {
      const std::string where =
          "sequence " + std::to_string(seq) + " op " + std::to_string(i);
      const std::set<FrameAddress> frames = ref.frames_of(ops[i]);
      const auto deltas = ref.deltas_of(ops[i]);
      const ApplyResult want = ref.price(frames, deltas);
      expect_same_result(got[i], want, where);
      skipped += want.frames_skipped;

      // The written set: every mapped frame, or only the dirty ones.
      std::set<FrameAddress> written = frames;
      if (gran == WriteGranularity::kDirtyFrame) {
        written.clear();
        for (const auto& [f, d] : deltas)
          if (d != 0) written.insert(f);
      }
      EXPECT_TRUE(std::equal(got_written[i].begin(), got_written[i].end(),
                             written.begin(), written.end()))
          << where;
      apply_structurally(mirror, ops[i]);
    }
    for (const ConfigOp& op : ops) ctl.apply(op);
  }
  // The streams do exercise cross-op dirty skipping.
  if (gran == WriteGranularity::kDirtyFrame) {
    EXPECT_GT(skipped, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    GeometriesAndGranularities, FlatPathEquivalence,
    ::testing::Combine(
        ::testing::Values(0, 1, 2),
        ::testing::Values(WriteGranularity::kColumn, WriteGranularity::kFrame,
                          WriteGranularity::kDirtyFrame)),
    sweep_name);

// ---- LUT-RAM legality --------------------------------------------------------

using CellTuple = std::tuple<int, int, int>;

/// The frame-derived LUT-RAM check: CLB columns taken from the reference
/// frame mapping at one granularity, exemptions from the op's own writes
/// plus `extra`. Returns the lowest violating column, or -1 when legal.
int frame_derived_violation(const Fabric& fab, const ReferencePath& ref,
                            const ConfigOp& op,
                            const std::set<CellTuple>& extra) {
  std::set<CellTuple> exempt = extra;
  for (const config::ConfigAction& a : op.actions)
    if (const auto* cw = std::get_if<config::CellWrite>(&a))
      exempt.insert({cw->clb.row, cw->clb.col, cw->cell});
  std::set<int> cols;
  for (const FrameAddress& f : ref.frames_of(op))
    if (f.type == ColumnType::kClb) cols.insert(f.column);
  const auto& g = fab.geometry();
  for (const int col : cols) {
    for (int row = 0; row < g.clb_rows; ++row) {
      for (int k = 0; k < g.cells_per_clb; ++k) {
        const LogicCellConfig& cell = fab.cell(ClbCoord{row, col}, k);
        if (cell.used && cell.lut_mode == fabric::LutMode::kRam &&
            !exempt.contains({row, col, k}))
          return col;
      }
    }
  }
  return -1;
}

class LutRamVerdict : public ::testing::TestWithParam<int> {};

TEST_P(LutRamVerdict, MatchesFrameDerivedCheckWithBatcherExemptions) {
  const int geom_sel = GetParam();
  const DeviceGeometry geom = geometry(geom_sel);
  Fabric fab(geom);
  config::BoundaryScanPort port;
  config::ConfigController ctl(fab, port, WriteGranularity::kDirtyFrame);
  const ReferencePath refs[] = {
      ReferencePath(fab, port, WriteGranularity::kColumn),
      ReferencePath(fab, port, WriteGranularity::kFrame),
      ReferencePath(fab, port, WriteGranularity::kDirtyFrame)};
  const auto net = fab.create_net("n");
  Rng rng(geometry_seed(geom_sel) ^ 0x1A7u);

  LogicCellConfig ram;
  ram.used = true;
  ram.lut_mode = fabric::LutMode::kRam;
  const auto random_cell = [&] {
    return CellTuple{
        static_cast<int>(rng.next_u64() % static_cast<unsigned>(geom.clb_rows)),
        static_cast<int>(rng.next_u64() % static_cast<unsigned>(geom.clb_cols)),
        static_cast<int>(rng.next_u64() %
                         static_cast<unsigned>(geom.cells_per_clb))};
  };
  const auto write_ram = [&](ConfigOp& op) {
    const auto [row, col, cell] = random_cell();
    op.write_cell(ClbCoord{row, col}, cell, ram);
  };
  // Seed live LUT-RAM, about one cell per three columns.
  ConfigOp seed("seed ram");
  for (int i = 0; i < std::max(2, geom.clb_cols / 3); ++i) write_ram(seed);
  ctl.apply(seed, /*allow_lut_ram_columns=*/true);

  int throws = 0, passes = 0, flipped_by_extra = 0;
  for (int step = 0; step < 300; ++step) {
    ConfigOp op = random_op(rng, geom, net, fab, step);
    if (rng.next_u64() % 4 == 0) write_ram(op);

    // Batcher-style exemptions: cells a pending batch rewrites. Half the
    // time they cover every live RAM cell of one column the op touches, so
    // the exemptions decide the verdict; plus random noise cells.
    std::set<CellTuple> extra;
    for (int i = 0; i < 3; ++i) extra.insert(random_cell());
    if (rng.next_u64() % 2 == 0) {
      const std::set<FrameAddress> frames = refs[1].frames_of(op);
      for (const FrameAddress& f : frames) {
        if (f.type != ColumnType::kClb) continue;
        for (int row = 0; row < geom.clb_rows; ++row)
          for (int k = 0; k < geom.cells_per_clb; ++k)
            if (fab.cell(ClbCoord{row, f.column}, k).lut_mode ==
                fabric::LutMode::kRam)
              extra.insert({row, f.column, k});
        break;
      }
    }
    std::vector<config::ConfigController::CellKey> keys;
    for (const auto& [row, col, cell] : extra)
      keys.push_back(config::ConfigController::cell_key(row, col, cell));
    std::sort(keys.begin(), keys.end());

    const std::string where = "step " + std::to_string(step);
    const int want = frame_derived_violation(fab, refs[0], op, extra);
    for (const ReferencePath& r : refs)
      ASSERT_EQ(frame_derived_violation(fab, r, op, extra), want) << where;
    if (want != frame_derived_violation(fab, refs[0], op, {}))
      ++flipped_by_extra;

    try {
      ctl.check_lut_ram_columns(op, &keys);
      EXPECT_EQ(want, -1) << where;
      ++passes;
    } catch (const IllegalOperationError& e) {
      ASSERT_NE(want, -1) << where << ": " << e.what();
      EXPECT_NE(std::string(e.what()).find(
                    "touches column " + std::to_string(want) + " "),
                std::string::npos)
          << where << ": " << e.what();
      ++throws;
    }
    // Evolve the fabric: RAM cells appear and are cleared over the stream.
    ctl.apply(op, /*allow_lut_ram_columns=*/true);
  }
  EXPECT_GT(throws, 0);
  EXPECT_GT(passes, 0);
  EXPECT_GT(flipped_by_extra, 0);
}

INSTANTIATE_TEST_SUITE_P(Geometries, LutRamVerdict, ::testing::Values(0, 1, 2),
                         [](const auto& p) {
                           return std::string(geometry_name(p.param));
                         });

}  // namespace
}  // namespace relogic
