// Integration tests: the paper's central experiment.
//
// Implement a live sequential circuit on the fabric, run it in lockstep
// with the golden model, dynamically relocate cells *while it runs*, and
// verify: outputs match the golden model every cycle, no state is lost, no
// glitches on registered outputs, no drive conflicts — "no loss of
// information or functional disturbance" (paper, Sec. 2).
#include <gtest/gtest.h>

#include "relogic/common/rng.hpp"
#include "relogic/config/controller.hpp"
#include "relogic/config/port.hpp"
#include "relogic/netlist/benchmarks.hpp"
#include "relogic/place/implement.hpp"
#include "relogic/reloc/engine.hpp"
#include "relogic/sim/harness.hpp"

namespace relogic {
namespace {

using fabric::DeviceGeometry;
using fabric::Fabric;
using netlist::bench::ClockingStyle;
using place::CellSite;
using place::Implementer;
using place::ImplementOptions;

struct Rig {
  Fabric fab;
  fabric::DelayModel dm;
  config::BoundaryScanPort port;
  config::ConfigController controller;
  sim::FabricSim sim;
  Implementer implementer;
  place::Router router;
  reloc::RelocationEngine engine;

  explicit Rig(DeviceGeometry geom = DeviceGeometry::tiny(12, 12))
      : fab(std::move(geom)),
        controller(fab, port, /*column_granular=*/true),
        sim(fab, dm),
        implementer(fab, dm),
        router(fab, dm),
        engine(controller, router, &sim) {
    sim.add_clock(sim::ClockSpec{});
  }
};

place::Implementation implement_at(Rig& rig, const netlist::Netlist& nl,
                                   ClbCoord origin) {
  const auto mapped = netlist::map_netlist(nl);
  ImplementOptions opts;
  opts.region = place::suggest_region(mapped, origin, rig.fab.geometry());
  return rig.implementer.implement(mapped, opts);
}

// --- baseline: circuits behave like the golden model without relocation ---

class LockstepTest : public ::testing::TestWithParam<ClockingStyle> {};

TEST_P(LockstepTest, B01MatchesGolden) {
  Rig rig;
  const auto nl = netlist::bench::b01(GetParam());
  auto impl = implement_at(rig, nl, {2, 2});
  sim::CircuitHarness harness(rig.sim, nl, impl);
  Rng rng(1);
  for (int i = 0; i < 60; ++i) {
    const auto r = harness.step_random(rng);
    ASSERT_TRUE(r.ok()) << harness.mismatch_log().back();
  }
}

TEST_P(LockstepTest, B02MatchesGolden) {
  Rig rig;
  const auto nl = netlist::bench::b02(GetParam());
  auto impl = implement_at(rig, nl, {2, 2});
  sim::CircuitHarness harness(rig.sim, nl, impl);
  Rng rng(2);
  for (int i = 0; i < 60; ++i) {
    const auto r = harness.step_random(rng);
    ASSERT_TRUE(r.ok()) << harness.mismatch_log().back();
  }
}

TEST_P(LockstepTest, B06MatchesGolden) {
  Rig rig;
  const auto nl = netlist::bench::b06(GetParam());
  auto impl = implement_at(rig, nl, {2, 2});
  sim::CircuitHarness harness(rig.sim, nl, impl);
  Rng rng(3);
  for (int i = 0; i < 60; ++i) {
    const auto r = harness.step_random(rng);
    ASSERT_TRUE(r.ok()) << harness.mismatch_log().back();
  }
}

TEST_P(LockstepTest, CounterMatchesGolden) {
  Rig rig;
  const auto nl = netlist::bench::counter(5, GetParam());
  auto impl = implement_at(rig, nl, {3, 3});
  sim::CircuitHarness harness(rig.sim, nl, impl);
  Rng rng(4);
  for (int i = 0; i < 80; ++i) {
    const auto r = harness.step_random(rng);
    ASSERT_TRUE(r.ok()) << harness.mismatch_log().back();
  }
}

INSTANTIATE_TEST_SUITE_P(Styles, LockstepTest,
                         ::testing::Values(ClockingStyle::kFreeRunning,
                                           ClockingStyle::kGatedClock),
                         [](const auto& pinfo) {
                           return pinfo.param == ClockingStyle::kFreeRunning
                                      ? "FreeRunning"
                                      : "GatedClock";
                         });

// --- the headline experiment: relocation during operation -----------------

TEST(RelocationTest, CombinationalCellRelocatesTransparently) {
  Rig rig;
  const auto nl = netlist::bench::random_logic("comb", 12, 4, 3, 99);
  auto impl = implement_at(rig, nl, {2, 2});
  sim::CircuitHarness harness(rig.sim, nl, impl);
  Rng rng(5);
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(harness.step_random(rng).ok());

  // Relocate every cell, one by one, to a far free corner.
  for (int i = 0; i < impl.cell_count(); ++i) {
    const CellSite dest{ClbCoord{9, 2 + (i / 4)}, i % 4};
    const auto report = rig.engine.relocate_cell(impl, i, dest);
    EXPECT_GT(report.frames_written, 0);
    for (int s = 0; s < 5; ++s)
      ASSERT_TRUE(harness.step_random(rng).ok())
          << harness.mismatch_log().back();
  }
  EXPECT_TRUE(rig.sim.monitor().clean());
}

// The Fig. 4 write-granularity sweep's column x ICAP case: five
// combinational cells of b01 on an XCV200 move 14 rows down and 18-19
// columns right. The fast port ends the last move 85 ns into a cycle, and
// the input paths through the replica in the second destination column
// need over 20 ns to settle, so inputs driven at once (15 ns before the
// edge) were captured stale. The harness must wait for the stimulus phase.
TEST(RelocationTest, StimulusAfterAFastDistantMoveWaitsForItsPhase) {
  Fabric fab(DeviceGeometry::xcv200());
  const fabric::DelayModel dm;
  config::IcapPort port;
  config::ConfigController controller(fab, port,
                                       config::WriteGranularity::kColumn);
  sim::FabricSim sim(fab, dm);
  sim.add_clock(sim::ClockSpec{});
  Implementer implementer(fab, dm);
  place::Router router(fab, dm);
  reloc::RelocationEngine engine(controller, router, &sim);

  const auto nl = netlist::bench::b01(ClockingStyle::kGatedClock);
  const auto mapped = netlist::map_netlist(nl);
  ImplementOptions opts;
  opts.region = place::suggest_region(mapped, ClbCoord{2, 2}, fab.geometry());
  auto impl = implementer.implement(mapped, opts);
  sim::CircuitHarness harness(sim, nl, impl);
  harness.watch_registered_outputs();
  Rng rng(0xF16'4 + static_cast<unsigned>(impl.cell_count()));
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(harness.step_random(rng).ok());

  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(impl.mapped.cells[static_cast<std::size_t>(i)].reg,
              fabric::RegMode::kNone);
    const CellSite dest{
        ClbCoord{impl.region.row + 14, impl.region.col + 18 + (i / 4)},
        i % 4};
    EXPECT_TRUE(engine.relocate_cell(impl, i, dest).state_verified);
  }
  const SimTime to_edge =
      sim.next_edge(0, sim.now() + SimTime::ps(1)) - sim.now();
  ASSERT_LT(to_edge, sim.clock_period(0) / 2)
      << "the moves no longer end late in a cycle; the case lost its point";
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(harness.step_random(rng).ok())
        << harness.mismatch_log().back();
  }
  EXPECT_TRUE(sim.monitor().clean());
}

TEST(RelocationTest, FreeRunningFFPreservesState) {
  Rig rig;
  const auto nl = netlist::bench::counter(5, ClockingStyle::kFreeRunning);
  auto impl = implement_at(rig, nl, {2, 2});
  sim::CircuitHarness harness(rig.sim, nl, impl);
  Rng rng(6);
  for (int i = 0; i < 13; ++i) ASSERT_TRUE(harness.step_random(rng).ok());

  // Move the whole counter to the opposite corner while it counts.
  const auto report =
      rig.engine.relocate_function(impl, ClbRect{8, 8, 3, 3});
  EXPECT_EQ(static_cast<int>(report.cells.size()), impl.cell_count());
  for (const auto& r : report.cells) EXPECT_TRUE(r.state_verified);

  for (int i = 0; i < 40; ++i)
    ASSERT_TRUE(harness.step_random(rng).ok())
        << harness.mismatch_log().back();
  EXPECT_EQ(rig.sim.monitor().count(sim::ViolationKind::kDriveConflict), 0);
}

TEST(RelocationTest, GatedClockFFUsesAuxCircuitAndPreservesState) {
  Rig rig;
  const auto nl = netlist::bench::b01(ClockingStyle::kGatedClock);
  auto impl = implement_at(rig, nl, {2, 2});
  sim::CircuitHarness harness(rig.sim, nl, impl);
  Rng rng(7);
  // Run with sparse CE activity so the transfer happens under an inactive
  // clock-enable most of the time (the hard case of Fig. 3).
  auto random_inputs = [&] {
    std::vector<bool> in;
    for (std::size_t i = 0; i < nl.inputs().size(); ++i)
      in.push_back(rng.next_bool());
    in.back() = rng.next_bool(0.2);  // "ce" is the last declared input
    return in;
  };
  for (int i = 0; i < 15; ++i) ASSERT_TRUE(harness.step(random_inputs()).ok());

  const auto report = rig.engine.relocate_function(impl, ClbRect{7, 7, 4, 4});
  for (const auto& r : report.cells) {
    if (r.reg == fabric::RegMode::kFF) {
      EXPECT_TRUE(r.gated_clock);
      EXPECT_TRUE(r.state_verified);
    }
  }

  for (int i = 0; i < 40; ++i)
    ASSERT_TRUE(harness.step(random_inputs()).ok())
        << harness.mismatch_log().back();
  EXPECT_EQ(rig.sim.monitor().count(sim::ViolationKind::kDriveConflict), 0);
}

TEST(RelocationTest, AsyncLatchPipelineRelocates) {
  Rig rig;
  const auto nl = netlist::bench::async_pipeline(4);
  auto impl = implement_at(rig, nl, {2, 2});
  sim::CircuitHarness harness(rig.sim, nl, impl);

  // Walk a token through the pipeline with two-phase gating.
  auto phase_step = [&](bool din, bool phi1, bool phi2) {
    return harness.settle_step({din, phi1, phi2});
  };
  ASSERT_TRUE(phase_step(true, true, false).ok());
  ASSERT_TRUE(phase_step(true, false, true).ok());

  // Relocate the second latch while the pipeline holds data.
  const auto report =
      rig.engine.relocate_cell(impl, 1, CellSite{ClbCoord{9, 9}, 0});
  EXPECT_EQ(report.reg, fabric::RegMode::kLatch);

  ASSERT_TRUE(phase_step(false, true, false).ok());
  ASSERT_TRUE(phase_step(false, false, true).ok());
  ASSERT_TRUE(phase_step(false, true, false).ok());
  EXPECT_EQ(harness.total_mismatches(), 0);
}

TEST(RelocationTest, LutRamRefusesRelocation) {
  Rig rig;
  const auto nl = netlist::bench::counter(3, ClockingStyle::kFreeRunning);
  auto impl = implement_at(rig, nl, {2, 2});
  // Turn one cell into a LUT-RAM after the fact.
  auto cfg = rig.fab.cell(impl.sites[0].clb, impl.sites[0].cell);
  cfg.lut_mode = fabric::LutMode::kRam;
  rig.fab.set_cell_config(impl.sites[0].clb, impl.sites[0].cell, cfg);
  EXPECT_THROW(
      rig.engine.relocate_cell(impl, 0, CellSite{ClbCoord{9, 9}, 0}),
      IllegalOperationError);
}

TEST(RelocationTest, RelocationReportsConfigPortTime) {
  Rig rig;
  const auto nl = netlist::bench::b02(ClockingStyle::kGatedClock);
  auto impl = implement_at(rig, nl, {2, 2});
  sim::CircuitHarness harness(rig.sim, nl, impl);
  Rng rng(8);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(harness.step_random(rng).ok());

  const auto report =
      rig.engine.relocate_cell(impl, impl.cell_count() - 1,
                               CellSite{ClbCoord{9, 2}, 0});
  // Gated-clock relocation over Boundary Scan: milliseconds, not micro.
  EXPECT_GT(report.config_time, SimTime::ms(1));
  EXPECT_LT(report.config_time, SimTime::ms(200));
  EXPECT_GE(report.wall_time, report.config_time);
  EXPECT_GT(report.ops, 5);
}

}  // namespace
}  // namespace relogic
