// bench_microperf — google-benchmark micro-performance of the library's
// hot paths: routing-graph construction, maze routing, event-driven
// simulation throughput, and the relocation engine itself.
//
// These are tooling benchmarks (how fast is the *simulator*), not paper
// reproductions; they bound how large an experiment the repository can
// drive and catch performance regressions.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "bench_report.hpp"
#include "relogic/area/defrag.hpp"
#include "relogic/config/controller.hpp"
#include "relogic/config/port.hpp"
#include "relogic/netlist/benchmarks.hpp"
#include "relogic/obs/timeline.hpp"
#include "relogic/obs/trace.hpp"
#include "relogic/place/implement.hpp"
#include "relogic/reloc/engine.hpp"
#include "relogic/runtime/batcher.hpp"
#include "relogic/sched/scheduler.hpp"
#include "relogic/sched/workload.hpp"
#include "relogic/sim/harness.hpp"

namespace {

using namespace relogic;

// ---- routing skeleton / device bring-up -------------------------------------
// Three measurements bracket the skeleton-cache design (DESIGN.md §2
// addendum): Cold is the two-pass counting CSR build paid once per
// geometry; Staging is the seed's vector-of-vectors builder kept as the
// audit reference — the within-run gate in check_perf_baseline.py holds
// Cold at XCV1000 to ≤ Staging/5; FabricAcquireCached is what every device
// after the first actually pays (gated absolute: ≤ 1 ms at XCV1000).

void BM_RoutingGraphBuildCold(benchmark::State& state) {
  const auto geom = fabric::DeviceGeometry::preset(
      static_cast<fabric::DevicePreset>(state.range(0)));
  for (auto _ : state) {
    auto skel = fabric::RoutingSkeleton::build(geom);
    benchmark::DoNotOptimize(skel->edge_count());
  }
  state.SetLabel(geom.name);
}
BENCHMARK(BM_RoutingGraphBuildCold)
    ->Arg(static_cast<int>(fabric::DevicePreset::kXCV50))
    ->Arg(static_cast<int>(fabric::DevicePreset::kXCV200))
    ->Arg(static_cast<int>(fabric::DevicePreset::kXCV1000))
    ->Unit(benchmark::kMillisecond);

void BM_RoutingGraphBuildStaging(benchmark::State& state) {
  const auto geom = fabric::DeviceGeometry::preset(
      static_cast<fabric::DevicePreset>(state.range(0)));
  for (auto _ : state) {
    auto skel = fabric::RoutingSkeleton::build_reference(geom);
    benchmark::DoNotOptimize(skel->edge_count());
  }
  state.SetLabel(geom.name);
}
BENCHMARK(BM_RoutingGraphBuildStaging)
    ->Arg(static_cast<int>(fabric::DevicePreset::kXCV1000))
    ->Unit(benchmark::kMillisecond);

void BM_FabricAcquireCached(benchmark::State& state) {
  const auto geom = fabric::DeviceGeometry::preset(
      static_cast<fabric::DevicePreset>(state.range(0)));
  // Warm the process-wide skeleton cache; the loop then measures the
  // steady-state bring-up of one more device of an already-seen geometry
  // (cache lookup + occupancy/cell-state allocation, no edge work).
  fabric::Fabric warmup(geom);
  for (auto _ : state) {
    fabric::Fabric fab(geom);
    benchmark::DoNotOptimize(fab.graph().node_count());
  }
  state.SetLabel(geom.name);
}
BENCHMARK(BM_FabricAcquireCached)
    ->Arg(static_cast<int>(fabric::DevicePreset::kXCV50))
    ->Arg(static_cast<int>(fabric::DevicePreset::kXCV200))
    ->Arg(static_cast<int>(fabric::DevicePreset::kXCV1000))
    ->Arg(static_cast<int>(fabric::DevicePreset::kXCV4000))
    ->Unit(benchmark::kMicrosecond);

void BM_MazeRoute(benchmark::State& state) {
  const int span = static_cast<int>(state.range(0));
  fabric::Fabric fab(fabric::DeviceGeometry::xcv200());
  const fabric::DelayModel dm;
  place::Router router(fab, dm);
  const auto& g = fab.graph();
  int k = 0;
  for (auto _ : state) {
    state.PauseTiming();
    const auto net = fab.create_net("n" + std::to_string(k));
    const int row = 2 + (k % 20);
    fab.attach_source(net, g.out_pin({row, 2}, k % 4, false));
    state.ResumeTiming();
    router.route_sink(net,
                      g.in_pin({row, 2 + span}, k % 4, fabric::CellPort::kI0));
    state.PauseTiming();
    fab.destroy_net(net);
    state.ResumeTiming();
    ++k;
  }
}
BENCHMARK(BM_MazeRoute)->Arg(4)->Arg(16)->Arg(38)->Unit(benchmark::kMicrosecond);

void BM_SimulatorCycles(benchmark::State& state) {
  fabric::Fabric fab(fabric::DeviceGeometry::tiny(16, 16));
  const fabric::DelayModel dm;
  sim::FabricSim sim(fab, dm);
  sim.add_clock(sim::ClockSpec{});
  place::Implementer implementer(fab, dm);
  const auto nl = netlist::bench::random_fsm("perf", 24, 4, 4, 5);
  auto impl = implementer.implement(
      netlist::map_netlist(nl),
      place::ImplementOptions{ClbRect{1, 1, 6, 6}, 0, {}, {}});
  // Free-running stimulus through pads.
  Rng rng(1);
  std::int64_t cycles = 0;
  for (auto _ : state) {
    for (const auto& [sig, pad] : impl.input_pads) {
      sim.drive_pad(pad, rng.next_bool());
    }
    sim.run_cycles(10);
    cycles += 10;
  }
  state.SetItemsProcessed(cycles);
}
BENCHMARK(BM_SimulatorCycles);

void BM_GatedCellRelocation(benchmark::State& state) {
  // Wall-clock cost of one full gated-clock relocation (engine + sim),
  // not the modelled configuration time.
  for (auto _ : state) {
    state.PauseTiming();
    fabric::Fabric fab(fabric::DeviceGeometry::tiny(14, 14));
    const fabric::DelayModel dm;
    config::BoundaryScanPort port;
    config::ConfigController controller(fab, port, true);
    sim::FabricSim sim(fab, dm);
    sim.add_clock(sim::ClockSpec{});
    place::Implementer implementer(fab, dm);
    place::Router router(fab, dm);
    reloc::RelocationEngine engine(controller, router, &sim);
    const auto nl = netlist::bench::shift_register(
        2, netlist::bench::ClockingStyle::kGatedClock);
    auto impl = implementer.implement(
        netlist::map_netlist(nl),
        place::ImplementOptions{ClbRect{2, 2, 2, 2}, 0, {}, {}});
    sim::CircuitHarness harness(sim, nl, impl);
    harness.step({true, true});
    state.ResumeTiming();

    benchmark::DoNotOptimize(
        engine.relocate_cell(impl, 0, place::CellSite{ClbCoord{10, 10}, 0}));
  }
}
BENCHMARK(BM_GatedCellRelocation)->Unit(benchmark::kMillisecond);

// ---- config-plane data path -------------------------------------------------
// The hot path every relocation costing, defrag plan, health sweep and fleet
// replay funnels through: ConfigController::apply / preview and the
// transaction batcher. Swept across device scales because the old set/map
// path degraded with frame-set size (preview re-scanned the whole frame set
// per touched column).

/// An op writing one cell in every `stride`-th CLB column — many columns,
/// many frames, the shape that exposed the quadratic preview. `phase` varies
/// the content so successive applies stay effective (never dirty-skipped).
config::ConfigOp spread_op(const fabric::DeviceGeometry& geom, int stride,
                           int phase) {
  config::ConfigOp op("spread" + std::to_string(phase));
  for (int c = 0; c < geom.clb_cols; c += stride) {
    fabric::LogicCellConfig cfg;
    cfg.used = true;
    cfg.reg = fabric::RegMode::kFF;
    cfg.lut = static_cast<std::uint16_t>(0x1111u * (1 + (phase & 3)) + c);
    op.write_cell(ClbCoord{c % geom.clb_rows, c}, c % geom.cells_per_clb, cfg);
  }
  return op;
}

void BM_ConfigApply(benchmark::State& state) {
  const auto geom = fabric::DeviceGeometry::preset(
      static_cast<fabric::DevicePreset>(state.range(0)));
  fabric::Fabric fab(geom);
  config::BoundaryScanPort port;
  config::ConfigController ctl(fab, port,
                               config::WriteGranularity::kDirtyFrame);
  const config::ConfigOp ops[2] = {spread_op(geom, 2, 0), spread_op(geom, 2, 1)};
  int phase = 0;
  std::int64_t applied = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctl.apply(ops[phase & 1]).frames_written);
    ++phase;
    ++applied;
  }
  state.SetItemsProcessed(applied);
  state.SetLabel(geom.name);
}
BENCHMARK(BM_ConfigApply)
    ->Arg(static_cast<int>(fabric::DevicePreset::kXCV50))
    ->Arg(static_cast<int>(fabric::DevicePreset::kXCV200))
    ->Arg(static_cast<int>(fabric::DevicePreset::kXCV1000))
    ->Arg(static_cast<int>(fabric::DevicePreset::kXCV4000))
    ->Unit(benchmark::kMicrosecond);

void BM_DirtyPreview(benchmark::State& state) {
  const auto geom = fabric::DeviceGeometry::preset(
      static_cast<fabric::DevicePreset>(state.range(0)));
  fabric::Fabric fab(geom);
  config::BoundaryScanPort port;
  config::ConfigController ctl(fab, port,
                               config::WriteGranularity::kDirtyFrame);
  const config::ConfigOp op = spread_op(geom, 2, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctl.preview(op).frames_written);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetLabel(geom.name);
}
BENCHMARK(BM_DirtyPreview)
    ->Arg(static_cast<int>(fabric::DevicePreset::kXCV50))
    ->Arg(static_cast<int>(fabric::DevicePreset::kXCV200))
    ->Arg(static_cast<int>(fabric::DevicePreset::kXCV1000))
    ->Arg(static_cast<int>(fabric::DevicePreset::kXCV4000))
    ->Unit(benchmark::kMicrosecond);

void BM_BatcherFlush(benchmark::State& state) {
  const auto geom = fabric::DeviceGeometry::preset(
      static_cast<fabric::DevicePreset>(state.range(0)));
  fabric::Fabric fab(geom);
  config::BoundaryScanPort port;
  config::ConfigController ctl(fab, port,
                               config::WriteGranularity::kDirtyFrame);
  runtime::BatchOptions bopt;
  bopt.max_ops = 8;
  runtime::TransactionBatcher batcher(ctl, bopt);
  // Eight ops per flush, each touching a different eighth of the columns.
  std::vector<config::ConfigOp> ops[2];
  for (int phase = 0; phase < 2; ++phase) {
    for (int k = 0; k < 8; ++k) {
      config::ConfigOp op("op" + std::to_string(k));
      for (int c = k; c < geom.clb_cols; c += 8) {
        fabric::LogicCellConfig cfg;
        cfg.used = true;
        cfg.lut = static_cast<std::uint16_t>(0x2222u * (1 + (phase & 1)) + c);
        op.write_cell(ClbCoord{(c + k) % geom.clb_rows, c},
                      k % geom.cells_per_clb, cfg);
      }
      ops[phase].push_back(std::move(op));
    }
  }
  int phase = 0;
  std::int64_t flushed = 0;
  for (auto _ : state) {
    for (const auto& op : ops[phase & 1]) batcher.enqueue(op);
    batcher.flush();
    ++phase;
    ++flushed;
  }
  state.SetItemsProcessed(flushed);
  state.SetLabel(geom.name);
}
BENCHMARK(BM_BatcherFlush)
    ->Arg(static_cast<int>(fabric::DevicePreset::kXCV50))
    ->Arg(static_cast<int>(fabric::DevicePreset::kXCV200))
    ->Arg(static_cast<int>(fabric::DevicePreset::kXCV1000))
    ->Arg(static_cast<int>(fabric::DevicePreset::kXCV4000))
    ->Unit(benchmark::kMicrosecond);

// ---- tracer overhead --------------------------------------------------------
// The observability contract (DESIGN.md §7): a disabled tracer costs one
// untaken branch per emission site. All three variants run the exact
// BM_ConfigApply XCV200 workload: _base never touches the tracer API,
// _off explicitly installs the null-object handle, _on attaches a live
// tracer (arg rendering + ring write). CI gates _off within 5% of _base —
// the two are registered adjacently so they run back-to-back under the
// same thermal/cache conditions, which a gate against the distant
// BM_ConfigApply_3 measurement could not guarantee.

enum class TraceMode { kBase, kOff, kOn };

void trace_overhead_run(benchmark::State& state, TraceMode mode) {
  const auto geom =
      fabric::DeviceGeometry::preset(fabric::DevicePreset::kXCV200);
  fabric::Fabric fab(geom);
  config::BoundaryScanPort port;
  config::ConfigController ctl(fab, port,
                               config::WriteGranularity::kDirtyFrame);
  obs::Tracer tracer;
  if (mode == TraceMode::kOff) ctl.set_trace(obs::TraceTrack{});
  if (mode == TraceMode::kOn)
    ctl.set_trace(tracer.track(0, 0, "bench", "config-port"));
  const config::ConfigOp ops[2] = {spread_op(geom, 2, 0),
                                   spread_op(geom, 2, 1)};
  int phase = 0;
  std::int64_t applied = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctl.apply(ops[phase & 1]).frames_written);
    ++phase;
    ++applied;
  }
  state.SetItemsProcessed(applied);
  state.SetLabel(geom.name);
}

void BM_TraceOverhead_base(benchmark::State& state) {
  trace_overhead_run(state, TraceMode::kBase);
}
BENCHMARK(BM_TraceOverhead_base)->Unit(benchmark::kMicrosecond);

void BM_TraceOverhead_off(benchmark::State& state) {
  trace_overhead_run(state, TraceMode::kOff);
}
BENCHMARK(BM_TraceOverhead_off)->Unit(benchmark::kMicrosecond);

void BM_TraceOverhead_on(benchmark::State& state) {
  trace_overhead_run(state, TraceMode::kOn);
}
BENCHMARK(BM_TraceOverhead_on)->Unit(benchmark::kMicrosecond);

// Metrics plane overhead on the scheduler's event loop: base never mentions
// metrics, off attaches a null sampler (the per-event `if (live_)` guards),
// on samples a live registry every 1 ms of simulated time. The perf gate
// (check_perf_baseline.py) holds off within 5% of base: a disabled metrics
// plane must be free on the request path, mirroring BM_TraceOverhead.
enum class MetricsMode { kBase, kOff, kOn };

void metrics_overhead_run(benchmark::State& state, MetricsMode mode) {
  sched::RandomTaskParams params;
  params.task_count = 60;
  params.mean_interarrival_ms = 1.0;
  params.seed = 11;
  const auto tasks = sched::random_tasks(params);
  const auto geom = fabric::DeviceGeometry::xcv200();
  const config::SelectMapPort port;
  const reloc::RelocationCostModel cost(geom, port);
  sched::Scheduler sched(16, 16, cost, sched::SchedulerConfig{});
  if (mode == MetricsMode::kOff) sched.set_metrics(nullptr);
  std::int64_t completed = 0;
  for (auto _ : state) {
    // The sampler is per-run state (samples are recorded in time order and
    // every run restarts the simulated clock), so the on mode pays its
    // construction too — that cost is part of enabling the plane.
    obs::MetricsTimeline timeline;
    obs::TimelineSampler sampler(&timeline, SimTime::ms(1));
    if (mode == MetricsMode::kOn) sched.set_metrics(&sampler);
    const auto stats = sched.run_tasks(tasks);
    benchmark::DoNotOptimize(stats.makespan);
    completed += static_cast<std::int64_t>(stats.tasks.size()) - stats.rejected;
    if (mode == MetricsMode::kOn) sched.set_metrics(nullptr);
  }
  state.SetItemsProcessed(completed);
  state.SetLabel(geom.name);
}

void BM_MetricsOverhead_base(benchmark::State& state) {
  metrics_overhead_run(state, MetricsMode::kBase);
}
BENCHMARK(BM_MetricsOverhead_base)->Unit(benchmark::kMillisecond);

void BM_MetricsOverhead_off(benchmark::State& state) {
  metrics_overhead_run(state, MetricsMode::kOff);
}
BENCHMARK(BM_MetricsOverhead_off)->Unit(benchmark::kMillisecond);

void BM_MetricsOverhead_on(benchmark::State& state) {
  metrics_overhead_run(state, MetricsMode::kOn);
}
BENCHMARK(BM_MetricsOverhead_on)->Unit(benchmark::kMillisecond);

void BM_DefragPlan(benchmark::State& state) {
  // Planning cost on a fragmented 32x32 grid.
  area::AreaManager mgr(32, 32);
  Rng rng(3);
  std::vector<area::RegionId> live;
  for (int i = 0; i < 40; ++i) {
    const auto id =
        mgr.allocate("r", rng.next_int(2, 7), rng.next_int(2, 7));
    if (id != area::kNoRegion) live.push_back(id);
  }
  for (std::size_t i = 0; i < live.size(); i += 2) mgr.release(live[i]);
  for (auto _ : state) {
    benchmark::DoNotOptimize(area::plan_for_request(mgr, 12, 12));
  }
}
BENCHMARK(BM_DefragPlan)->Unit(benchmark::kMillisecond);

// One device's share of a packed fleet: a 24x24 device on the JTAG port
// fed Poisson tasks with sides 2-10 at a quarter of the 4-device fleet's
// 2 ms mean interarrival, so it runs near full and host time is placement
// search in sched/area (free-space queries, the defrag planner and the
// cheapest-move bound ahead of it). Cross-run gated by
// check_perf_baseline.py.
void BM_SchedulerPacked(benchmark::State& state) {
  sched::WorkloadParams params;
  params.pattern = sched::ArrivalPattern::kPoisson;
  params.task_count = 500;
  params.mean_interarrival_ms = 8.0;
  params.min_side = 2;
  params.max_side = 10;
  params.seed = 1;
  const auto tasks = sched::WorkloadGenerator(params).generate();
  std::vector<sched::AppSpec> apps;
  apps.reserve(tasks.size());
  for (const auto& task : tasks)
    apps.push_back(sched::AppSpec{task.fn.name, {task.fn}, task.arrival});
  const auto geom = fabric::DeviceGeometry::tiny(24, 24);
  const config::BoundaryScanPort port;
  const reloc::RelocationCostModel cost(geom, port);
  sched::Scheduler sched(24, 24, cost, sched::SchedulerConfig{});
  for (auto _ : state) {
    const auto stats = sched.run_apps(apps);
    benchmark::DoNotOptimize(stats.makespan);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(apps.size()));
}
BENCHMARK(BM_SchedulerPacked)->Unit(benchmark::kMillisecond);

/// google-benchmark 1.8.0 replaced Run::error_occurred with Run::skipped;
/// these overloads pick whichever member the system library has.
template <typename R>
auto run_failed(const R& run, int)
    -> decltype(static_cast<bool>(run.error_occurred)) {
  return run.error_occurred;
}
template <typename R>
auto run_failed(const R& run, long)
    -> decltype(static_cast<bool>(run.skipped)) {
  return static_cast<bool>(run.skipped);
}

/// Console output as usual, plus every run captured into the shared
/// machine-readable report (BENCH_microperf.json).
class ReportingConsole : public benchmark::ConsoleReporter {
 public:
  explicit ReportingConsole(bench_report::Report& report) : report_(&report) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run_failed(run, 0)) continue;
      std::string name = run.benchmark_name();
      for (char& c : name) {
        if (c == '/' || c == ':') c = '_';
      }
      report_->add(name, run.GetAdjustedRealTime(),
                   benchmark::GetTimeUnitString(run.time_unit));
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  bench_report::Report* report_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  bench_report::Report report("microperf");
  ReportingConsole console(report);
  benchmark::RunSpecifiedBenchmarks(&console);
  benchmark::Shutdown();
  if (!report.write()) {
    std::fprintf(stderr, "failed to write %s\n", report.path().c_str());
    return 1;
  }
  std::printf("wrote %s\n", report.path().c_str());
  return 0;
}
