// live_migration: the paper's core mechanism. ITC'99-class circuits
// (gated-clock style, the auxiliary-relocation-circuit case) are implemented
// on a small `tiny` device, held in lockstep with their golden models under
// random stimuli, and have registered cells migrated live by the two-phase
// RelocationEngine; the lockstep harness and the GlitchMonitor then verify
// the migrated circuit. Runs on reloc, sim, config, place and fabric; the
// area, sched and runtime layers do no work here.
//
// A repetition builds a fresh device per circuit (set-up: fabric, engine,
// implementation, warm-up steps) and measures the migration plus the
// post-migration lockstep checks.
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"
#include "relogic/common/rng.hpp"
#include "relogic/config/controller.hpp"
#include "relogic/config/port.hpp"
#include "relogic/fabric/fabric.hpp"
#include "relogic/fabric/routing.hpp"
#include "relogic/netlist/benchmarks.hpp"
#include "relogic/netlist/mapping.hpp"
#include "relogic/place/implement.hpp"
#include "relogic/reloc/engine.hpp"
#include "relogic/sim/harness.hpp"

namespace e2e {
namespace {

using namespace relogic;

constexpr int kSide = 12;
// Event-heavy (b01, b06) and event-light (b08c) circuits: host time per
// migrated cell is not proportional to simulated events across them.
const char* const kCircuits[] = {"b01", "b06", "b08c"};
// One registered (gated-clock) cell per circuit and repetition.
constexpr int kCellsPerCircuit = 1;
constexpr int kWarmupSteps = 10;
constexpr int kCheckSteps = 5;
// Inputs per run. Input k warms up with the fixed stimulus set k, so every
// run migrates out of the same circuit states; the run seed picks the
// destination and the post-migration stimuli. Host time per migration varies
// up to ~5x with the circuit state, so a run pools eight of them.
constexpr int kInputs = 8;
constexpr std::uint64_t kStimulusSeed = 0x17C99;
constexpr int kBringupSamples = 5;

/// One device hosting one circuit: fabric, JTAG port, controller, simulator
/// and engine, wired the way the paper's validation campaign wires them.
/// Members reference each other, so the object stays where it was built.
struct Device {
  explicit Device(const fabric::DeviceGeometry& geom)
      : fab(geom),
        controller(fab, port),
        sim(fab, dm),
        implementer(fab, dm),
        router(fab, dm),
        engine(controller, router, &sim) {
    sim.add_clock(sim::ClockSpec{});
  }
  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  fabric::Fabric fab;
  const fabric::DelayModel dm;
  config::BoundaryScanPort port;
  config::ConfigController controller;
  sim::FabricSim sim;
  place::Implementer implementer;
  place::Router router;
  reloc::RelocationEngine engine;
  place::Implementation impl;
  std::unique_ptr<sim::CircuitHarness> harness;
};

/// Simulated outcome of one input (identical on every repetition).
struct SimOutcome {
  std::vector<std::int64_t> config_ps;  ///< per migrated cell
  std::vector<std::int64_t> latency_ps; ///< per migrated cell, incl. waits
  std::vector<int> frames;
  std::int64_t events = 0;
  bool operator==(const SimOutcome&) const = default;
};

/// Host-side measurements of one repetition.
struct RepTimes {
  double setup_s = 0.0;
  double run_s = 0.0;
  double implement_ms = 0.0;
  double relocate_ms = 0.0;
  double unattributed_ms = 0.0;
  std::vector<double> cell_ms;
  std::vector<double> step_us_before;
  std::vector<double> step_us_after;
  std::int64_t ops = 0;
  std::int64_t frames_written = 0;
  std::int64_t frames_skipped = 0;
  std::int64_t reloc_ops = 0;
  std::int64_t reloc_frames = 0;
};

void run_rep(const std::vector<netlist::bench::SuiteEntry>& suite,
             int input, std::uint64_t seed, SpanLog& log,
             Result& result, RepTimes& t, SimOutcome& sim_out) {
  const auto geom = fabric::DeviceGeometry::tiny(kSide, kSide);
  fabric::clear_routing_skeleton_cache();
  for (std::size_t c = 0; c < suite.size(); ++c) {
    const netlist::bench::SuiteEntry& entry = suite[c];
    Rng warm(derive_seed(kStimulusSeed,
                         16 * static_cast<std::uint64_t>(input) + c));
    Rng rng(derive_seed(seed, 100 + c));

    // ---- set-up: device, implementation, warm-up ----------------------------
    const auto s0 = Clock::now();
    // The device outlives the set-up, so this span is closed by hand.
    const int setup_id = log.recording() ? log.open("bench.setup", input) : -1;
    Device dev(geom);
    const netlist::MappedNetlist mapped = netlist::map_netlist(entry.circuit);
    place::ImplementOptions iopt;
    iopt.region = place::suggest_region(mapped, ClbCoord{1, 1}, geom);
    {
      const auto i0 = Clock::now();
      Scope span(log, "place.implement", input);
      dev.impl = dev.implementer.implement(mapped, iopt);
      t.implement_ms += seconds_since(i0) * 1e3;
    }
    dev.harness = std::make_unique<sim::CircuitHarness>(dev.sim, entry.circuit,
                                                        dev.impl);
    dev.harness->watch_registered_outputs();
    bool ok = true;
    for (int i = 0; i < kWarmupSteps; ++i) {
      const auto w0 = Clock::now();
      Scope span(log, "sim.step", input);
      ok = dev.harness->step_random(warm).ok() && ok;
      t.step_us_before.push_back(seconds_since(w0) * 1e6);
    }
    if (setup_id >= 0) log.close(setup_id);
    t.setup_s += seconds_since(s0);
    if (!ok) result.fail(entry.name + ": lockstep mismatch before migration");

    // Registered cells (the gated-clock FFs) migrate to their site in the
    // footprint moved right past a gap column and shifted by a seed-chosen
    // number of rows.
    std::vector<int> cells;
    std::vector<place::CellSite> dests;
    const ClbRect& reg = dev.impl.region;
    const int dcol = reg.width + 1;
    const int drow = rng.next_int(-reg.row, kSide - reg.row_end());
    for (int i = 0; i < dev.impl.cell_count() &&
                    static_cast<int>(cells.size()) < kCellsPerCircuit;
         ++i) {
      if (dev.impl.mapped.cells[static_cast<std::size_t>(i)].reg ==
          fabric::RegMode::kNone)
        continue;
      place::CellSite dest = dev.impl.sites[static_cast<std::size_t>(i)];
      dest.clb.col += dcol;
      dest.clb.row += drow;
      cells.push_back(i);
      dests.push_back(dest);
    }

    // ---- measured: live migration + post-migration lockstep check ----------
    const config::ConfigTotals before = dev.controller.totals();
    const std::int64_t events0 = dev.sim.events_processed();
    const auto m0 = Clock::now();
    int phase_id = -1;
    {
      Scope phase(log, "bench.measured", input);
      phase_id = phase.id();
      for (std::size_t i = 0; i < cells.size(); ++i) {
        const auto r0 = Clock::now();
        reloc::RelocationReport rep;
        {
          Scope span(log, "reloc.relocate_cell", input);
          rep = dev.engine.relocate_cell(dev.impl, cells[i], dests[i]);
        }
        const double ms = seconds_since(r0) * 1e3;
        t.cell_ms.push_back(ms);
        t.relocate_ms += ms;
        t.reloc_ops += rep.ops;
        t.reloc_frames += rep.frames_written;
        sim_out.config_ps.push_back(rep.config_time.picoseconds());
        sim_out.latency_ps.push_back(rep.wall_time.picoseconds());
        sim_out.frames.push_back(rep.frames_written);
        result.attempt(1);
        if (!rep.state_verified)
          result.fail(entry.name + " cell " + std::to_string(cells[i]) +
                      ": state not verified");
      }
      for (int i = 0; i < kCheckSteps; ++i) {
        const auto w0 = Clock::now();
        Scope span(log, "sim.step", input);
        ok = dev.harness->step_random(rng).ok() && ok;
        t.step_us_after.push_back(seconds_since(w0) * 1e6);
      }
    }
    t.run_s += seconds_since(m0);
    if (phase_id >= 0) t.unattributed_ms += log.self_ms(phase_id);
    sim_out.events += dev.sim.events_processed() - events0;
    const config::ConfigTotals& after = dev.controller.totals();
    t.ops += after.ops - before.ops;
    t.frames_written += after.frames_written - before.frames_written;
    t.frames_skipped += after.frames_skipped - before.frames_skipped;

    if (!ok || !dev.sim.monitor().clean())
      result.fail(entry.name + ": lockstep or glitch check failed after "
                  "migration (" +
                      std::to_string(dev.sim.monitor().violations().size()) +
                      " monitor violations)",
                  static_cast<std::int64_t>(cells.size()));
  }
}

}  // namespace

void run_live_migration(const Options& opt, SpanLog& log, Result& result) {
  const auto all = netlist::bench::itc99_suite(
      netlist::bench::ClockingStyle::kGatedClock);
  std::vector<netlist::bench::SuiteEntry> suite;
  for (const char* name : kCircuits)
    for (const auto& e : all)
      if (e.name == name) suite.push_back(e);
  if (suite.size() != std::size(kCircuits)) {
    result.fail("ITC'99 suite lacks a benchmark circuit");
    return;
  }

  const auto geom = fabric::DeviceGeometry::tiny(kSide, kSide);
  std::vector<double> cold_ms, warm_ms;
  for (int i = 0; i < kBringupSamples; ++i) {
    fabric::clear_routing_skeleton_cache();
    auto t0 = Clock::now();
    { fabric::Fabric fab(geom); }
    cold_ms.push_back(seconds_since(t0) * 1e3);
    t0 = Clock::now();
    { fabric::Fabric fab(geom); }
    warm_ms.push_back(seconds_since(t0) * 1e3);
  }

  std::vector<std::uint64_t> seeds;
  for (int k = 0; k < kInputs; ++k) seeds.push_back(derive_seed(opt.seed, k));

  std::vector<std::vector<double>> untraced_s(kInputs), traced_s(kInputs),
      unattributed_ms(kInputs), implement_ms(kInputs), relocate_ms(kInputs);
  std::vector<double> setup_s, cell_ms, step_before, step_after;
  std::vector<SimOutcome> reference(kInputs);
  std::vector<bool> have_reference(kInputs, false);
  std::vector<RepTimes> counted(kInputs);
  double ns_per_event_sum = 0.0;
  int ns_per_event_n = 0;
  run_cycles(kInputs, opt.seconds, 2, [&](int k, int cycle) {
    const bool traced = opt.trace && cycle % 2 == 1;
    RepTimes t;
    SimOutcome sim_out;
    log.set_recording(traced);
    run_rep(suite, k, seeds[static_cast<std::size_t>(k)], log, result, t,
            sim_out);
    log.set_recording(false);
    setup_s.push_back(t.setup_s);
    (traced ? traced_s : untraced_s)[k].push_back(t.run_s);
    if (!traced) {
      implement_ms[k].push_back(t.implement_ms);
      relocate_ms[k].push_back(t.relocate_ms);
      cell_ms.insert(cell_ms.end(), t.cell_ms.begin(), t.cell_ms.end());
      step_before.insert(step_before.end(), t.step_us_before.begin(),
                         t.step_us_before.end());
      step_after.insert(step_after.end(), t.step_us_after.begin(),
                        t.step_us_after.end());
      if (sim_out.events > 0) {
        ns_per_event_sum += t.run_s * 1e9 / static_cast<double>(sim_out.events);
        ++ns_per_event_n;
      }
    } else {
      unattributed_ms[k].push_back(t.unattributed_ms);
    }
    if (!have_reference[k]) {
      have_reference[k] = true;
      reference[k] = std::move(sim_out);
      counted[k] = std::move(t);
    } else if (!(sim_out == reference[k])) {
      result.fail("input " + std::to_string(k) +
                  ": simulated results differ between repeats");
    }
  });

  // Simulated metrics, pooled over the inputs.
  std::vector<double> latency_ms;
  double config_ms = 0.0, latency_s = 0.0;
  std::int64_t events = 0;
  long long cells = 0, ops = 0, frames_written = 0, frames_skipped = 0,
            reloc_ops = 0, reloc_frames = 0;
  for (int k = 0; k < kInputs; ++k) {
    const SimOutcome& o = reference[static_cast<std::size_t>(k)];
    for (std::size_t i = 0; i < o.config_ps.size(); ++i) {
      config_ms += SimTime::ps(o.config_ps[i]).milliseconds();
      latency_ms.push_back(SimTime::ps(o.latency_ps[i]).milliseconds());
      latency_s += SimTime::ps(o.latency_ps[i]).seconds();
    }
    cells += static_cast<long long>(o.config_ps.size());
    events += o.events;
    const RepTimes& c = counted[static_cast<std::size_t>(k)];
    ops += c.ops;
    frames_written += c.frames_written;
    frames_skipped += c.frames_skipped;
    reloc_ops += c.reloc_ops;
    reloc_frames += c.reloc_frames;
  }
  result.set("setup_s", median(setup_s));
  result.set("run_s", mean_of_medians(untraced_s));
  result.set("sim_wait_ms_p50", quantile(latency_ms, 0.50));
  result.set("sim_wait_ms_p99", quantile(latency_ms, 0.99));
  result.set("sim_ops_per_s", latency_s > 0 ? cells / latency_s : 0.0);
  result.set("sim_port_ms_per_cell", cells > 0 ? config_ms / cells : 0.0);

  if (!opt.trace) return;
  const double untraced = mean_of_medians(untraced_s);
  const double traced = mean_of_medians(traced_s);
  // Layers this workload does not run.
  for (const char* idle :
       {"runtime.admit_ms", "runtime.admit_us_p50", "runtime.admit_us_p99",
        "runtime.rebalanced", "runtime.quarantined", "runtime.report_ms",
        "sched.run_ms_sum", "sched.run_ms_max", "sched.skew",
        "sched.us_per_task", "sched.moves", "sched.moved_clbs",
        "sched.rejected", "sched.selftest_moves", "sched.faulty_clbs",
        "config.replay_ms"})
    result.set(idle, 0.0);
  result.set("fabric.bringup_ms", median(warm_ms));
  result.set("fabric.cold_bringup_ms", median(cold_ms));
  // No batcher here: every ConfigOp the engine applies is one transaction.
  result.set("config.ops", static_cast<double>(ops));
  result.set("config.transactions", static_cast<double>(ops));
  result.set("config.frames_written", static_cast<double>(frames_written));
  result.set("config.frames_skipped", static_cast<double>(frames_skipped));
  result.set("place.implement_ms", mean_of_medians(implement_ms));
  result.set("reloc.relocate_ms", mean_of_medians(relocate_ms));
  result.set("reloc.cell_ms_p50", quantile(cell_ms, 0.50));
  result.set("reloc.cells", static_cast<double>(cells));
  result.set("reloc.ops", static_cast<double>(reloc_ops));
  result.set("reloc.frames_written", static_cast<double>(reloc_frames));
  result.set("sim.events", static_cast<double>(events));
  result.set("sim.ns_per_event",
             ns_per_event_n ? ns_per_event_sum / ns_per_event_n : 0.0);
  // Means, not medians: after a migration the cost sits in the first step.
  result.set("sim.step_us_before", mean(step_before));
  result.set("sim.step_us_after", mean(step_after));
  result.set("bench.trace_overhead_pct",
             untraced > 0 ? (traced - untraced) / untraced * 100.0 : 0.0);
  result.set("bench.unattributed_ms", mean_of_medians(unattributed_ms));
}

}  // namespace e2e
