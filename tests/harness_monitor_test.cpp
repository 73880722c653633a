// Unit tests: the lockstep harness and the glitch monitor themselves —
// the instruments every experiment relies on.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <unordered_map>
#include <vector>

#include "relogic/common/rng.hpp"
#include "relogic/netlist/benchmarks.hpp"
#include "relogic/place/implement.hpp"
#include "relogic/sim/harness.hpp"

namespace relogic::sim {
namespace {

using netlist::bench::ClockingStyle;

struct Rig {
  fabric::Fabric fab{fabric::DeviceGeometry::tiny(12, 12)};
  fabric::DelayModel dm;
  FabricSim sim{fab, dm};
  place::Implementer implementer{fab, dm};
  Rig() { sim.add_clock(ClockSpec{}); }

  place::Implementation implement(const netlist::Netlist& nl, ClbCoord at) {
    const auto mapped = netlist::map_netlist(nl);
    place::ImplementOptions opts;
    opts.region = place::suggest_region(mapped, at, fab.geometry());
    return implementer.implement(mapped, opts);
  }
};

TEST(Harness, CountsCyclesAndKeepsLog) {
  Rig rig;
  const auto nl = netlist::bench::counter(3);
  auto impl = rig.implement(nl, {2, 2});
  CircuitHarness h(rig.sim, nl, impl);
  for (int i = 0; i < 9; ++i) EXPECT_TRUE(h.step({}).ok());
  EXPECT_EQ(h.cycles_run(), 9);
  EXPECT_EQ(h.total_mismatches(), 0);
  EXPECT_TRUE(h.mismatch_log().empty());
}

TEST(Harness, RejectsWrongStimulusWidth) {
  Rig rig;
  const auto nl = netlist::bench::b01();  // 2 inputs
  auto impl = rig.implement(nl, {2, 2});
  CircuitHarness h(rig.sim, nl, impl);
  EXPECT_THROW(h.step({true}), ContractError);
  EXPECT_THROW(h.step({true, false, true}), ContractError);
}

TEST(Harness, GoldenCatchUpAfterIdleFabricTime) {
  // Let the fabric clock run without stepping the harness (what happens
  // during a long reconfiguration), then verify the next step still
  // compares clean — the golden model is caught up automatically.
  Rig rig;
  const auto nl = netlist::bench::counter(4);  // free-running: state evolves
  auto impl = rig.implement(nl, {2, 2});
  CircuitHarness h(rig.sim, nl, impl);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(h.step({}).ok());
  rig.sim.run_cycles(57);  // fabric runs on alone
  EXPECT_TRUE(h.step({}).ok());
  EXPECT_TRUE(h.step({}).ok());
}

TEST(Harness, WatchRegisteredOutputsOnlyWatchesRegistered) {
  Rig rig;
  // counter: q0..q3 registered, tc combinational.
  const auto nl = netlist::bench::counter(3);
  auto impl = rig.implement(nl, {2, 2});
  CircuitHarness h(rig.sim, nl, impl);
  h.watch_registered_outputs();
  EXPECT_TRUE(rig.sim.monitor().watching(impl.output_pad("q0")));
  EXPECT_FALSE(rig.sim.monitor().watching(impl.output_pad("tc")));
}

TEST(Harness, DetectsSingleBitStateCorruption) {
  // Sensitivity check: flipping exactly one FF value in the simulator must
  // surface as a mismatch within a few cycles.
  Rig rig;
  const auto nl = netlist::bench::lfsr(5, 0b10100);
  auto impl = rig.implement(nl, {2, 2});
  CircuitHarness h(rig.sim, nl, impl);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(h.step({}).ok());

  // Corrupt one bit by rewriting the cell with inverted init... the init
  // is only loaded at configuration; instead corrupt via the golden side:
  // advance golden one extra cycle so the two diverge.
  h.golden().clock();
  bool diverged = false;
  for (int i = 0; i < 4; ++i) {
    if (!h.step({}).ok()) diverged = true;
  }
  EXPECT_TRUE(diverged);
}

TEST(Monitor, WindowResetsEachClockEdge) {
  GlitchMonitor m;
  m.watch(42, "sig");
  m.record_transition(42, SimTime::ns(10));
  m.on_clock_edge(SimTime::ns(100));
  m.record_transition(42, SimTime::ns(110));
  m.on_clock_edge(SimTime::ns(200));
  // One transition per window: clean.
  EXPECT_TRUE(m.clean());
  EXPECT_EQ(m.transitions_observed(), 2);

  m.record_transition(42, SimTime::ns(210));
  m.record_transition(42, SimTime::ns(220));  // second in same window
  EXPECT_EQ(m.count(ViolationKind::kGlitch), 1);
}

TEST(Monitor, UnwatchStopsRecording) {
  GlitchMonitor m;
  m.watch(7, "x");
  m.record_transition(7, SimTime::ns(1));
  m.unwatch(7);
  m.record_transition(7, SimTime::ns(2));
  m.record_transition(7, SimTime::ns(3));
  EXPECT_TRUE(m.clean());
  EXPECT_EQ(m.transitions_observed(), 1);
}

// The monitor as it was before its filter and window counter: a hash
// lookup on every transition and a walk over every watch on every edge.
// The monitor must record exactly the violations and transition count
// this one does.
class HashOnlyMonitor {
 public:
  void watch(fabric::NodeId node, std::string label) {
    watched_[node] = Watch{std::move(label), 0};
  }
  void unwatch(fabric::NodeId node) { watched_.erase(node); }
  void record_transition(fabric::NodeId node, SimTime time) {
    auto it = watched_.find(node);
    if (it == watched_.end()) return;
    ++transitions_;
    if (++it->second.count > 1) {
      violations_.push_back(Violation{
          ViolationKind::kGlitch, time, node,
          it->second.label + " transitioned " +
              std::to_string(it->second.count) +
              " times within one clock window"});
    }
  }
  void on_clock_edge() {
    for (auto& [node, w] : watched_) w.count = 0;
  }
  const std::vector<Violation>& violations() const { return violations_; }
  std::int64_t transitions_observed() const { return transitions_; }

 private:
  struct Watch {
    std::string label;
    int count;
  };
  std::unordered_map<fabric::NodeId, Watch> watched_;
  std::vector<Violation> violations_;
  std::int64_t transitions_ = 0;
};

/// Drives a GlitchMonitor and the hash-only one with the same calls.
struct MonitorPair {
  GlitchMonitor m;
  HashOnlyMonitor ref;
  SimTime now = SimTime::zero();

  void watch(fabric::NodeId n) {
    m.watch(n, "n" + std::to_string(n));
    ref.watch(n, "n" + std::to_string(n));
  }
  void unwatch(fabric::NodeId n) {
    m.unwatch(n);
    ref.unwatch(n);
  }
  void transition(fabric::NodeId n) {
    now += SimTime::ns(1);
    m.record_transition(n, now);
    ref.record_transition(n, now);
  }
  void edge() {
    now += SimTime::ns(1);
    m.on_clock_edge(now);
    ref.on_clock_edge();
  }
  /// Checks the two agree; returns the number of violations.
  std::size_t expect_same() const {
    EXPECT_EQ(m.transitions_observed(), ref.transitions_observed());
    const auto& got = m.violations();
    const auto& want = ref.violations();
    EXPECT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
      EXPECT_EQ(got[i].kind, want[i].kind) << i;
      EXPECT_EQ(got[i].time, want[i].time) << i;
      EXPECT_EQ(got[i].node, want[i].node) << i;
      EXPECT_EQ(got[i].description, want[i].description) << i;
    }
    return want.size();
  }
};

TEST(Monitor, WatchAddedMidWindowCountsFromItsWatch) {
  MonitorPair p;
  p.watch(5);
  p.transition(5);
  p.transition(9);  // not watched yet
  p.watch(9);
  p.transition(9);
  p.transition(9);  // second since the watch: a glitch
  p.watch(5);       // re-watching restarts the count mid-window
  p.transition(5);
  p.edge();
  p.edge();
  p.watch(12);  // in a window no other watch has counted in
  p.transition(12);
  p.transition(5);
  p.transition(5);
  EXPECT_EQ(p.expect_same(), 2u);
  EXPECT_EQ(p.m.transitions_observed(), 7);
}

TEST(Monitor, UnwatchThenRewatchStartsAFreshCount) {
  MonitorPair p;
  p.watch(3);
  p.transition(3);
  p.unwatch(3);
  p.transition(3);  // ignored
  p.watch(3);       // same window
  p.transition(3);
  p.transition(3);  // second since the re-watch
  p.edge();
  p.transition(3);
  p.unwatch(3);
  p.edge();
  p.edge();
  p.watch(3);  // windows later
  p.transition(3);
  p.unwatch(3);
  p.unwatch(3);  // unwatching an unwatched node is harmless
  p.transition(3);
  EXPECT_EQ(p.expect_same(), 1u);
  EXPECT_EQ(p.m.transitions_observed(), 5);
}

TEST(Monitor, WatchedIdsEqualModulo64KeepSeparateCounts) {
  MonitorPair p;
  p.watch(3);
  p.watch(67);
  p.watch(131);
  p.transition(3);
  p.transition(67);
  p.transition(131);
  p.edge();
  p.unwatch(3);  // the shared filter bit must stay for 67 and 131
  p.transition(67);
  p.transition(67);
  p.transition(3);
  p.transition(131);
  EXPECT_EQ(p.expect_same(), 1u);
  EXPECT_FALSE(p.m.watching(3));
  EXPECT_TRUE(p.m.watching(67));
}

TEST(Monitor, UnwatchedNodeCollidingWithAWatchedOneIsIgnored) {
  MonitorPair p;
  p.watch(10);
  for (int i = 0; i < 5; ++i) p.transition(74);  // 74 = 10 + 64
  p.transition(10);
  p.edge();
  p.transition(10 + 64 * 1000);
  p.transition(10);
  EXPECT_EQ(p.expect_same(), 0u);
  EXPECT_EQ(p.m.transitions_observed(), 2);
}

TEST(Monitor, RandomStreamMatchesTheHashOnlyMonitor) {
  Rng rng(99);
  MonitorPair p;
  for (int op = 0; op < 20000; ++op) {
    // Ids from a small range with many equal modulo 64.
    const auto n = static_cast<fabric::NodeId>(rng.next_below(128));
    switch (rng.next_int(0, 19)) {
      case 0:
        p.watch(n);
        break;
      case 1:
        p.unwatch(n);
        break;
      case 2:
        p.edge();
        break;
      default:
        p.transition(n);
        break;
    }
  }
  EXPECT_GT(p.expect_same(), 100u);
}

TEST(Monitor, ViolationBookkeeping) {
  GlitchMonitor m;
  m.add_violation({ViolationKind::kStateDivergence, SimTime::ns(5), 1, "a"});
  m.add_violation({ViolationKind::kDriveConflict, SimTime::ns(6), 2, "b"});
  EXPECT_EQ(m.count(ViolationKind::kStateDivergence), 1);
  EXPECT_EQ(m.count(ViolationKind::kDriveConflict), 1);
  EXPECT_EQ(m.count(ViolationKind::kGlitch), 0);
  EXPECT_FALSE(m.clean());
  m.clear();
  EXPECT_TRUE(m.clean());
  EXPECT_EQ(to_string(ViolationKind::kGlitch), "glitch");
  EXPECT_EQ(to_string(ViolationKind::kDriveConflict), "drive-conflict");
}

TEST(AsyncHarness, SettleStepComparesLatchPipelines) {
  Rig rig;
  const auto nl = netlist::bench::async_pipeline(3);
  auto impl = rig.implement(nl, {2, 2});
  CircuitHarness h(rig.sim, nl, impl);
  // March a one through with alternating phases.
  ASSERT_TRUE(h.settle_step({true, true, false}).ok());
  ASSERT_TRUE(h.settle_step({true, false, true}).ok());
  ASSERT_TRUE(h.settle_step({false, true, false}).ok());
  ASSERT_TRUE(h.settle_step({false, false, true}).ok());
  EXPECT_EQ(h.total_mismatches(), 0);
}

}  // namespace
}  // namespace relogic::sim
