// FabricSim's maintained indexes (DESIGN.md §11).
//
// The simulator keeps flat indexes so a clock edge costs what the live
// circuit costs, not what the device costs: a copy of every site's stored
// config, the edge-triggered flip-flop sites, the nets with paralleled
// sources, each net's decoded sources and sinks, and the nets each cell
// output drives. Two kinds of test pin them down:
//
//  * a seeded random stream of every mutation that can reach the indexes
//    (cell writes, in-place flip-flop edits, fault injection,
//    capture/restore, net source edits, clocking with a halted domain),
//    with FabricSim::audit() — a from-scratch recompute of the indexes,
//    the per-site config mirror included — required to pass after every
//    op, and a second simulator built mid-stream required to adopt the
//    fabric as it stands;
//  * the simulated outcome of a live gated-clock relocation, pinned to the
//    values the full-device scan produced. The event count and the final
//    flip-flop states only stay equal if every clock edge schedules the
//    same captures in the same order, so an index that skipped, added or
//    reordered a site fails here even where the lockstep harness cannot
//    tell.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "relogic/common/rng.hpp"
#include "relogic/config/controller.hpp"
#include "relogic/config/port.hpp"
#include "relogic/netlist/benchmarks.hpp"
#include "relogic/netlist/mapping.hpp"
#include "relogic/place/implement.hpp"
#include "relogic/reloc/engine.hpp"
#include "relogic/sim/harness.hpp"

namespace relogic {
namespace {

using fabric::DeviceGeometry;
using fabric::Fabric;
using netlist::bench::ClockingStyle;

// ---- differential stream: audit after every op -----------------------------

/// A random cell image: unused, kFF, kLatch or combinational, on clock
/// domain 0 or 1, with uses_ce and d_src either way.
fabric::LogicCellConfig random_cell(Rng& rng) {
  fabric::LogicCellConfig cfg;
  switch (rng.next_int(0, 3)) {
    case 0:
      return cfg;
    case 1:
      cfg.reg = fabric::RegMode::kFF;
      break;
    case 2:
      cfg.reg = fabric::RegMode::kLatch;
      break;
    default:
      break;
  }
  cfg.used = true;
  cfg.lut = static_cast<std::uint16_t>(rng.next_below(0x10000));
  cfg.clock_domain = static_cast<std::uint8_t>(rng.next_int(0, 1));
  cfg.uses_ce = rng.next_bool();
  cfg.d_src = rng.next_bool() ? fabric::DSrc::kBypass : fabric::DSrc::kLut;
  cfg.init = rng.next_bool();
  return cfg;
}

struct StreamCase {
  const char* name;
  DeviceGeometry geom;
  std::uint64_t seed;
};

class SimIndexStream : public ::testing::TestWithParam<StreamCase> {};

TEST_P(SimIndexStream, AuditHoldsAfterEveryOp) {
  const StreamCase& tc = GetParam();
  Fabric fab(tc.geom);
  const fabric::DelayModel dm;
  sim::FabricSim sim(fab, dm);
  sim.add_clock(sim::ClockSpec{0, SimTime::ns(100), SimTime::ns(100)});
  sim.add_clock(sim::ClockSpec{1, SimTime::ns(70), SimTime::ns(35)});
  const auto& geom = fab.geometry();
  Rng rng(tc.seed);

  auto random_clb = [&] {
    return ClbCoord{rng.next_int(0, geom.clb_rows - 1),
                    rng.next_int(0, geom.clb_cols - 1)};
  };
  // A cell output pin no net holds yet (tiny grids have plenty).
  auto free_out_pin = [&] {
    for (;;) {
      const fabric::NodeId pin =
          fab.graph().out_pin(random_clb(),
                              rng.next_int(0, geom.cells_per_clb - 1),
                              rng.next_bool());
      if (fab.graph().occupant(pin) == fabric::kNoNet) return pin;
    }
  };

  // One net at a time walks 1 -> 2 -> 3 sources, back down to 1, and is
  // deleted; other ops (restore especially) may interfere with it.
  fabric::NetId walk = fabric::kNoNet;
  bool shrinking = false;
  std::optional<Fabric::State> snapshot;
  int ff_writes = 0;
  int mirror_only_writes = 0;  ///< changes no flip-flop record can see
  int adoptions = 0;
  int ff_edits = 0;
  int faults = 0;
  int restores = 0;
  int nets_deleted = 0;
  std::size_t max_sources = 0;

  for (int op = 0; op < 2000; ++op) {
    switch (rng.next_int(0, 8)) {
      case 0:
      case 1: {
        const auto cfg = random_cell(rng);
        const int cell = rng.next_int(0, geom.cells_per_clb - 1);
        const ClbCoord clb = random_clb();
        const auto is_ff = [](const fabric::LogicCellConfig& c) {
          return c.used && c.reg == fabric::RegMode::kFF;
        };
        ff_writes += cfg.reg == fabric::RegMode::kFF ? 1 : 0;
        mirror_only_writes +=
            fab.cell(clb, cell) != cfg && !is_ff(fab.cell(clb, cell)) &&
            !is_ff(cfg);
        fab.set_cell_config(clb, cell, cfg);
        break;
      }
      case 2: {
        // A fault on a kFF site corrupts its stored LUT; the site stays a
        // flip-flop and the listener still hears the rewrite.
        const ClbCoord clb = random_clb();
        const int cell = rng.next_int(0, geom.cells_per_clb - 1);
        auto cfg = random_cell(rng);
        cfg.used = true;
        cfg.reg = fabric::RegMode::kFF;
        fab.set_cell_config(clb, cell, cfg);
        ASSERT_NO_THROW(sim.audit()) << "op " << op << " (FF write)";
        fab.inject_fault(clb, cell,
                         fabric::CellFault{
                             static_cast<std::uint8_t>(rng.next_int(0, 15)),
                             rng.next_bool()});
        ++faults;
        break;
      }
      case 3:
        if (!snapshot.has_value() || rng.next_bool(0.4)) {
          snapshot = fab.capture();
        } else {
          fab.restore(*snapshot);
          ++restores;
        }
        break;
      case 4:
      case 5: {
        if (walk != fabric::kNoNet && !fab.net_exists(walk))
          walk = fabric::kNoNet;  // a restore took it away
        if (walk == fabric::kNoNet) {
          walk = fab.create_net("walk" + std::to_string(op));
          fab.attach_source(walk, free_out_pin());
          shrinking = false;
          break;
        }
        const auto& sources = fab.net(walk).sources;
        if (sources.size() >= 3) shrinking = true;
        if (!shrinking) {
          fab.attach_source(walk, free_out_pin());
        } else if (sources.size() > 1) {
          fab.detach_source(
              walk, sources[static_cast<std::size_t>(rng.next_int(
                        0, static_cast<int>(sources.size()) - 1))]);
        } else {
          fab.destroy_net(walk);
          walk = fabric::kNoNet;
          ++nets_deleted;
        }
        if (walk != fabric::kNoNet)
          max_sources = std::max(max_sources, fab.net(walk).sources.size());
        break;
      }
      case 6:
        sim.run_cycles(rng.next_int(1, 3),
                       static_cast<std::uint8_t>(rng.next_int(0, 1)));
        break;
      case 7: {
        // A flip-flop stays one while its clock domain, CE use and D source
        // change in place: its config mirror must follow.
        const ClbCoord clb = random_clb();
        const int cell = rng.next_int(0, geom.cells_per_clb - 1);
        auto cfg = fab.cell(clb, cell);
        if (!cfg.used || cfg.reg != fabric::RegMode::kFF) {
          cfg = random_cell(rng);
          cfg.used = true;
          cfg.reg = fabric::RegMode::kFF;
          fab.set_cell_config(clb, cell, cfg);
          ASSERT_NO_THROW(sim.audit()) << "op " << op << " (FF write)";
        }
        cfg.clock_domain = static_cast<std::uint8_t>(cfg.clock_domain ^ 1);
        cfg.uses_ce = !cfg.uses_ce;
        cfg.d_src = cfg.d_src == fabric::DSrc::kLut ? fabric::DSrc::kBypass
                                                    : fabric::DSrc::kLut;
        fab.set_cell_config(clb, cell, cfg);
        ++ff_edits;
        break;
      }
      default:
        sim.set_clock_running(static_cast<std::uint8_t>(rng.next_int(0, 1)),
                              rng.next_bool());
        break;
    }
    ASSERT_NO_THROW(sim.audit()) << "op " << op;
    if (op % 250 == 249) {
      // A simulator attached now must adopt every stored config.
      const sim::FabricSim late(fab, dm);
      ASSERT_NO_THROW(late.audit()) << "adoption after op " << op;
      ++adoptions;
    }
  }

  // The stream reached every kind of mutation it is meant to cover.
  EXPECT_GT(ff_writes, 0);
  EXPECT_GT(mirror_only_writes, 0);
  EXPECT_EQ(adoptions, 8);
  EXPECT_GT(ff_edits, 0);
  EXPECT_GT(faults, 0);
  EXPECT_GT(restores, 0);
  EXPECT_GT(nets_deleted, 0);
  EXPECT_EQ(max_sources, 3u);
  EXPECT_GT(sim.edges_seen(0), 0);
  EXPECT_GT(sim.edges_seen(1), 0);
}

INSTANTIATE_TEST_SUITE_P(
    TinyGrids, SimIndexStream,
    ::testing::Values(StreamCase{"tiny3x4", DeviceGeometry::tiny(3, 4), 1},
                      StreamCase{"tiny5x5", DeviceGeometry::tiny(5, 5), 2},
                      StreamCase{"tiny2x3", DeviceGeometry::tiny(2, 3), 3}),
    [](const ::testing::TestParamInfo<StreamCase>& tpi) {
      return std::string(tpi.param.name);
    });

TEST(SimIndex, AdoptsFlipFlopsAndParalleledNetsConfiguredBeforeConstruction) {
  Fabric fab(DeviceGeometry::tiny(4, 4));
  fabric::LogicCellConfig ff;
  ff.used = true;
  ff.reg = fabric::RegMode::kFF;
  fab.set_cell_config(ClbCoord{3, 1}, 2, ff);
  fab.set_cell_config(ClbCoord{0, 2}, 0, ff);
  const fabric::NetId net = fab.create_net("paralleled");
  fab.attach_source(net, fab.graph().out_pin(ClbCoord{3, 1}, 2, true));
  fab.attach_source(net, fab.graph().out_pin(ClbCoord{0, 2}, 0, true));

  const fabric::DelayModel dm;
  sim::FabricSim sim(fab, dm);
  EXPECT_NO_THROW(sim.audit());
  fab.clear_cell(ClbCoord{0, 2}, 0);
  fab.detach_source(net, fab.graph().out_pin(ClbCoord{0, 2}, 0, true));
  EXPECT_NO_THROW(sim.audit());
}

TEST(SimIndex, FlipFlopCapturesOnlyOnEdgesOfItsOwnRunningDomain) {
  Fabric fab(DeviceGeometry::tiny(2, 2));
  const fabric::DelayModel dm;
  sim::FabricSim sim(fab, dm);
  sim.add_clock(sim::ClockSpec{0, SimTime::ns(100), SimTime::ns(100)});
  sim.add_clock(sim::ClockSpec{1, SimTime::ns(100), SimTime::ns(150)});
  sim.set_clock_running(1, false);
  // D is a constant 1 and the flip-flop powers up at 0.
  auto ff = fabric::LogicCellConfig::constant(true);
  ff.reg = fabric::RegMode::kFF;
  ff.clock_domain = 1;
  fab.set_cell_config(ClbCoord{1, 0}, 3, ff);

  sim.run_cycles(3, 0);
  EXPECT_FALSE(sim.state_of(ClbCoord{1, 0}, 3));
  EXPECT_EQ(sim.edges_seen(1), 0);
  sim.set_clock_running(1, true);
  sim.run_cycles(1, 1);
  EXPECT_TRUE(sim.state_of(ClbCoord{1, 0}, 3));
}

// ---- pinned outcome of a live relocation --------------------------------

struct PinnedOutcome {
  std::int64_t events = 0;
  std::int64_t config_ps = 0;
  std::int64_t wall_ps = 0;
  int frames_written = 0;
  std::string states;  ///< state_of every registered site, '0'/'1'
};

/// Implements `nl` on a tiny 12x12 device, warms it up under lockstep with
/// a fixed stimulus seed, relocates its first registered cell live (one
/// gap column to the right of the footprint) and runs five more lockstep
/// steps. Fails the test on any lockstep, verification or monitor finding.
PinnedOutcome relocate_and_run(const netlist::Netlist& nl) {
  const auto geom = DeviceGeometry::tiny(12, 12);
  Fabric fab(geom);
  const fabric::DelayModel dm;
  config::BoundaryScanPort port;
  config::ConfigController controller(fab, port);
  sim::FabricSim sim(fab, dm);
  sim.add_clock(sim::ClockSpec{});
  place::Implementer implementer(fab, dm);
  place::Router router(fab, dm);
  reloc::RelocationEngine engine(controller, router, &sim);

  const netlist::MappedNetlist mapped = netlist::map_netlist(nl);
  place::ImplementOptions iopt;
  iopt.region = place::suggest_region(mapped, ClbCoord{1, 1}, geom);
  place::Implementation impl = implementer.implement(mapped, iopt);
  sim::CircuitHarness harness(sim, nl, impl);
  harness.watch_registered_outputs();

  Rng warm(0x17C99);
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(harness.step_random(warm).ok());

  int cell = -1;
  for (int i = 0; i < impl.cell_count() && cell < 0; ++i) {
    if (impl.mapped.cells[static_cast<std::size_t>(i)].reg !=
        fabric::RegMode::kNone)
      cell = i;
  }
  EXPECT_GE(cell, 0);
  place::CellSite dest = impl.sites[static_cast<std::size_t>(cell)];
  dest.clb.col += impl.region.width + 1;
  const reloc::RelocationReport rep = engine.relocate_cell(impl, cell, dest);
  EXPECT_TRUE(rep.state_verified);

  Rng after(0x5EED);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(harness.step_random(after).ok());
  EXPECT_TRUE(sim.monitor().clean());

  PinnedOutcome out;
  out.events = sim.events_processed();
  out.config_ps = rep.config_time.picoseconds();
  out.wall_ps = rep.wall_time.picoseconds();
  out.frames_written = rep.frames_written;
  for (int i = 0; i < impl.cell_count(); ++i) {
    if (impl.mapped.cells[static_cast<std::size_t>(i)].reg ==
        fabric::RegMode::kNone)
      continue;
    const auto& site = impl.sites[static_cast<std::size_t>(i)];
    out.states += sim.state_of(site.clb, site.cell) ? '1' : '0';
  }
  return out;
}

// The constants below are what the full-device scan simulation produced
// for these exact runs; the indexed simulator must reproduce them bit for
// bit.

TEST(SimPinnedOutcome, GatedB01RelocationMatchesFullScanSimulation) {
  const PinnedOutcome o =
      relocate_and_run(netlist::bench::b01(ClockingStyle::kGatedClock));
  EXPECT_EQ(o.events, 5373850);
  EXPECT_EQ(o.config_ps, 21708800000);
  EXPECT_EQ(o.wall_ps, 21709075000);
  EXPECT_EQ(o.frames_written, 1536);
  EXPECT_EQ(o.states, "00110");
}

TEST(SimPinnedOutcome, GatedB08cRelocationMatchesFullScanSimulation) {
  netlist::Netlist nl("unset");
  for (auto& e : netlist::bench::itc99_suite(ClockingStyle::kGatedClock)) {
    if (e.name == "b08c") nl = std::move(e.circuit);
  }
  ASSERT_EQ(nl.name(), "b08c");
  const PinnedOutcome o = relocate_and_run(nl);
  EXPECT_EQ(o.events, 247299);
  EXPECT_EQ(o.config_ps, 24499200000);
  EXPECT_EQ(o.wall_ps, 24499475000);
  EXPECT_EQ(o.frames_written, 1734);
  EXPECT_EQ(o.states, "010011100000001111101");
}

}  // namespace
}  // namespace relogic
