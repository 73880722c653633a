// GoldenSim::clock_held(n) against its definition, n calls of clock().
//
// The lockstep harness catches the golden model up across a relocation
// with clock_held: ~230k held-input edges per relocated cell, skipped a
// whole period at a time once Brent's cycle detection sees the state of the
// DFFs and latches repeat. Every node value after clock_held(n) must equal
// the value after n plain edges, for n around the circuit's own period λ
// (found here by brute force), for n = 0, 1, 2, and for a long catch-up.
// The circuits: the ITC'99 suite in both clocking styles under random held
// inputs, plus hand-built netlists for the cases the suite may not reach —
// latch state that the DFFs alone do not determine, a period longer than
// the catch-up, a transient before the cycle, and a first edge that reads
// comb logic not yet settled to the held inputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "relogic/common/rng.hpp"
#include "relogic/netlist/benchmarks.hpp"
#include "relogic/netlist/golden.hpp"
#include "relogic/netlist/netlist.hpp"

namespace relogic::netlist {
namespace {

using bench::ClockingStyle;

constexpr std::int64_t kLongCatchUp = 100003;

/// `stem` then `i`, built by appending: GCC 12 -Wrestrict misfires on
/// a string literal prepended to a temporary.
std::string indexed(const char* stem, int i) {
  std::string name = stem;
  name += std::to_string(i);
  return name;
}

/// Resets `g`, then holds `inputs`; unless `settled`, the comb logic still
/// reflects the reset inputs when the first edge comes.
void prepare(GoldenSim& g, const std::vector<bool>& inputs, bool settled) {
  g.reset();
  const auto& ins = g.netlist().inputs();
  for (std::size_t i = 0; i < ins.size(); ++i) g.set_input(ins[i], inputs[i]);
  if (settled) g.settle();
}

struct Period {
  std::int64_t mu = 0;      ///< edges before the cycle, counted from edge 1
  std::int64_t lambda = 0;  ///< 0 when no repeat showed within the cap
};

/// Brute-force period of the state after each edge, from edge 1 on.
Period brute_force_period(const Netlist& nl, const std::vector<bool>& inputs,
                          bool settled, std::int64_t cap) {
  GoldenSim g(nl);
  prepare(g, inputs, settled);
  std::map<std::vector<bool>, std::int64_t> seen;
  for (std::int64_t edge = 1; edge <= cap; ++edge) {
    g.clock();
    const auto [it, inserted] = seen.try_emplace(g.state(), edge);
    if (!inserted) return Period{it->second - 1, edge - it->second};
  }
  return Period{};
}

/// First node whose value differs, or an empty string.
std::string first_difference(const GoldenSim& want, const GoldenSim& got) {
  const Netlist& nl = want.netlist();
  for (SigId s = 0; s < nl.node_count(); ++s) {
    if (want.value(s) != got.value(s))
      return "node " + std::to_string(s) + " '" + nl.node(s).name +
             "': clock() x n gives " + std::to_string(want.value(s));
  }
  return {};
}

/// The n the oracle checks: 0, 1, 2, λ-1, λ, λ+1 (when λ is known), μ+λ±1
/// around the end of the first period, and the long catch-up.
std::vector<std::int64_t> probe_counts(const Period& p) {
  std::vector<std::int64_t> ns = {0, 1, 2, kLongCatchUp};
  if (p.lambda > 0) {
    for (std::int64_t n : {p.lambda - 1, p.lambda, p.lambda + 1,
                           p.mu + p.lambda, p.mu + p.lambda + 1})
      ns.push_back(n);
  }
  std::sort(ns.begin(), ns.end());
  ns.erase(std::unique(ns.begin(), ns.end()), ns.end());
  return ns;
}

/// Runs one plain model through every probe count in ascending order and
/// checks a fresh clock_held model against it at each.
void check_catch_up(const Netlist& nl, const std::vector<bool>& inputs,
                    bool settled, const Period& p) {
  GoldenSim plain(nl);
  prepare(plain, inputs, settled);
  std::int64_t clocked = 0;
  for (const std::int64_t n : probe_counts(p)) {
    for (; clocked < n; ++clocked) plain.clock();
    GoldenSim held(nl);
    prepare(held, inputs, settled);
    held.clock_held(n);
    const std::string diff = first_difference(plain, held);
    ASSERT_TRUE(diff.empty())
        << nl.name() << (settled ? " settled" : " unsettled") << " n=" << n
        << " (mu=" << p.mu << ", lambda=" << p.lambda << "): " << diff;
  }
}

void check_both_starts(const Netlist& nl, const std::vector<bool>& inputs,
                       std::int64_t cap) {
  for (const bool settled : {true, false}) {
    const Period p = brute_force_period(nl, inputs, settled, cap);
    check_catch_up(nl, inputs, settled, p);
  }
}

TEST(GoldenCatchUp, Itc99SuiteUnderRandomHeldInputs) {
  Rng rng(0xCA7C4);
  int cycles_longer_than_one = 0;
  for (const auto style :
       {ClockingStyle::kFreeRunning, ClockingStyle::kGatedClock}) {
    for (const auto& entry : bench::itc99_suite(style)) {
      SCOPED_TRACE(entry.name + (style == ClockingStyle::kGatedClock
                                     ? " gated"
                                     : " free-running"));
      // One random input vector per start, settled and not.
      for (const bool settled : {true, false}) {
        std::vector<bool> inputs;
        for (std::size_t i = 0; i < entry.circuit.inputs().size(); ++i)
          inputs.push_back(rng.next_bool());
        const Period p =
            brute_force_period(entry.circuit, inputs, settled, 4096);
        cycles_longer_than_one += p.lambda > 1 ? 1 : 0;
        check_catch_up(entry.circuit, inputs, settled, p);
      }
    }
  }
  // The suite exercises the remainder, not only fixed points.
  EXPECT_GT(cycles_longer_than_one, 0);
}

TEST(GoldenCatchUp, LatchStateTheFlipFlopsDoNotDetermine) {
  // A toggle flip-flop t (period 2) clocks a two-latch ring: l1 opens on
  // t and takes !l2, l2 opens on !t and takes l1. The full state has
  // period 4; a key of the flip-flops alone would see period 2.
  Netlist nl("latch_ring");
  const SigId t = nl.dff_feedback(false, "t");
  nl.connect_dff(t, nl.not_(t));
  const SigId l1 = nl.latch_feedback(false, "l1");
  const SigId l2 = nl.latch_feedback(false, "l2");
  nl.connect_latch(l1, nl.not_(l2), t);
  nl.connect_latch(l2, l1, nl.not_(t));
  nl.output("l2", l2);
  nl.validate();
  const Period p = brute_force_period(nl, {}, true, 64);
  ASSERT_EQ(p.lambda, 4);
  check_both_starts(nl, {}, 64);
}

TEST(GoldenCatchUp, PeriodLongerThanTheCatchUp) {
  // A 17-bit counter: period 131072 > kLongCatchUp, so that catch-up sees
  // no repeat and clocks every edge.
  Netlist nl("counter17");
  std::vector<SigId> q;
  for (int i = 0; i < 17; ++i)
    q.push_back(nl.dff_feedback(false, indexed("q", i)));
  const std::vector<SigId> next = nl.increment(q);
  for (std::size_t i = 0; i < q.size(); ++i) nl.connect_dff(q[i], next[i]);
  nl.output("msb", q.back());
  nl.validate();
  const Period p = brute_force_period(nl, {}, true, 1 << 18);
  ASSERT_EQ(p.lambda, 1 << 17);
  ASSERT_GT(p.lambda, kLongCatchUp);
  check_catch_up(nl, {}, true, p);
}

TEST(GoldenCatchUp, TransientBeforeTheCycle) {
  // A five-stage shift register fills with ones; only then does its last
  // stage enable a 3-bit counter (period 8).
  Netlist nl("transient");
  SigId stage = nl.constant(true);
  for (int i = 0; i < 5; ++i)
    stage = nl.dff(stage, std::nullopt, false, indexed("s", i));
  std::vector<SigId> q;
  for (int i = 0; i < 3; ++i)
    q.push_back(nl.dff_feedback(false, indexed("c", i)));
  const std::vector<SigId> next = nl.increment(q);
  for (std::size_t i = 0; i < q.size(); ++i)
    nl.connect_dff(q[i], next[i], stage);
  nl.output("c2", q.back());
  nl.validate();
  const Period p = brute_force_period(nl, {}, true, 256);
  ASSERT_EQ(p.lambda, 8);
  ASSERT_GT(p.mu, 0);
  check_both_starts(nl, {}, 256);
}

TEST(GoldenCatchUp, FirstEdgeReadsLogicNotYetSettledToTheHeldInputs) {
  // A toggle flip-flop enabled by input a through an XOR. Raising a without
  // settling leaves the XOR at its reset value, so the first edge repeats
  // the reset state although the next one toggles.
  Netlist nl("stale_toggle");
  const SigId a = nl.input("a");
  const SigId r = nl.dff_feedback(false, "r");
  nl.connect_dff(r, nl.xor_(a, r));
  nl.output("r", r);
  nl.validate();
  const Period p = brute_force_period(nl, {true}, false, 64);
  ASSERT_EQ(p.lambda, 2);
  check_both_starts(nl, {true}, 64);
}

TEST(GoldenCatchUp, NegativeCountIsRejected) {
  const Netlist nl = bench::b01(ClockingStyle::kFreeRunning);
  GoldenSim g(nl);
  EXPECT_THROW(g.clock_held(-1), ContractError);
}

}  // namespace
}  // namespace relogic::netlist
