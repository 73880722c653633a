// Fleet workloads: runtime::FleetManager over 4 devices of 24x24 CLBs fed
// Poisson tasks from sched::WorkloadGenerator (CLI defaults), admitted online
// with least-loaded dispatch and rebalancing, executed with transparent
// relocation.
//
//  * fleet_packed   — 2 fleets of 2000 tasks per run on the JTAG port (the
//                     paper's and the CLI's default): the devices run near
//                     full, so host time is placement search inside each
//                     device's scheduler.
//  * fleet_selftest — the same fleet with the roving self-test sweeping a
//                     window over every device and injected faults masked as
//                     they are detected, on the SelectMAP-8 port (under JTAG
//                     the sweep alone saturates the port), task sides 2-6,
//                     so the devices stay lightly loaded; 100 fleets of 500
//                     tasks per run.
//
// The measured phase is first submit -> run() return. A traced run then
// replays each device's work serially — Scheduler::run_apps, Fabric
// bring-up, ConfigController + TransactionBatcher replay, as
// FleetManager::run_device does — to time the layers the fleet's worker
// pool hides, and fails unless the replay's RunStats and BatchStats equal
// the fleet's own DeviceReports.
#include <algorithm>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness.hpp"
#include "relogic/config/kernel.hpp"
#include "relogic/config/port.hpp"
#include "relogic/fabric/fabric.hpp"
#include "relogic/fabric/routing.hpp"
#include "relogic/health/fault.hpp"
#include "relogic/reloc/cost.hpp"
#include "relogic/runtime/batcher.hpp"
#include "relogic/runtime/fleet.hpp"
#include "relogic/sched/scheduler.hpp"
#include "relogic/sched/workload.hpp"

namespace e2e {
namespace {

using namespace relogic;

constexpr int kDevices = 4;
constexpr int kSide = 24;
constexpr double kRebalanceMs = 80.0;
// Faults: ~4% of CLBs carry a defect, below the 8% quarantine threshold, so
// the sweep masks faults on every device and quarantines none.
constexpr double kFaultRate = 0.01;
constexpr double kQuarantineThreshold = 0.08;
constexpr int kSetupPasses = 11;
// Fault populations tried per fleet input before giving up (see
// fault_seed_for).
constexpr int kFaultSeedTries = 64;
constexpr int kBringupSamples = 5;

struct FleetShape {
  bool selftest = false;
  config::PortBackend port = config::PortBackend::kJtag;
  /// Tasks per fleet input.
  int tasks = 2000;
  /// Largest task side (rows and columns).
  int max_side = 10;
  /// Independent fleet inputs per run. Every metric pools all of them,
  /// which keeps its seed-to-seed spread small.
  int inputs = 1;
};

struct FleetInput {
  runtime::FleetConfig cfg;
  std::vector<sched::TaskArrival> tasks;
};

/// Fault seed of device `d`: the per-device mix FleetManager applies to
/// FleetHealthConfig::fault_seed.
std::uint64_t device_fault_seed(std::uint64_t fleet_seed, int d) {
  return fleet_seed +
         0x9e3779b97f4a7c15ull * (static_cast<std::uint64_t>(d) + 1);
}

/// True when the device's injected faults leave a fault-free square of side
/// `side`: then every task of the input fits once all faults are masked.
bool has_fault_free_square(const health::FaultMap& faults, int side) {
  // row[c + 1]: side of the largest fault-free square whose bottom-right
  // corner is (r, c); above[] holds the same for row r - 1.
  std::vector<int> above(static_cast<std::size_t>(faults.cols()) + 1, 0);
  std::vector<int> row(above.size(), 0);
  for (int r = 0; r < faults.rows(); ++r) {
    for (int c = 0; c < faults.cols(); ++c) {
      const auto i = static_cast<std::size_t>(c) + 1;
      row[i] = faults.clb_has_injected(ClbCoord{r, c})
                   ? 0
                   : 1 + std::min({above[i], row[i - 1], above[i - 1]});
      if (row[i] >= side) return true;
    }
    std::swap(above, row);
  }
  return false;
}

/// The fleet's fault seed: the first of the input's derived seeds whose
/// fault population leaves every device a fault-free square of the largest
/// task side. Fleet admission prices fault-degraded capacity in CLBs, not in
/// shapes, so a device without such a square can be handed a task it can
/// never place, and the scheduler rejects it. At the workload's fault rate
/// and task sides no device in 20000 sampled lacks one; the search only
/// keeps the workload free of failed operations on every seed.
std::uint64_t fault_seed_for(const runtime::FleetConfig& cfg,
                             std::uint64_t input_seed, int max_side) {
  const auto geom = fabric::DeviceGeometry::tiny(cfg.rows, cfg.cols);
  for (int attempt = 0; attempt < kFaultSeedTries; ++attempt) {
    const std::uint64_t seed =
        derive_seed(input_seed, 1 + static_cast<std::uint64_t>(attempt));
    bool fits = true;
    for (int d = 0; d < cfg.devices && fits; ++d)
      fits = has_fault_free_square(
          health::FaultInjector(cfg.rows, cfg.cols, geom.cells_per_clb,
                                cfg.health.fault_rate,
                                device_fault_seed(seed, d))
              .generate(),
          max_side);
    if (fits) return seed;
  }
  throw std::runtime_error("no fault population leaves room for every task");
}

FleetInput make_input(const FleetShape& shape, std::uint64_t seed,
                      int threads) {
  FleetInput in;
  runtime::FleetConfig& cfg = in.cfg;
  cfg.devices = kDevices;
  cfg.rows = kSide;
  cfg.cols = kSide;
  cfg.dispatch = runtime::DispatchPolicy::kLeastLoaded;
  cfg.admission = runtime::AdmissionMode::kOnline;
  cfg.rebalance_backlog_ms = kRebalanceMs;
  cfg.sched.policy = sched::ManagementPolicy::kTransparent;
  cfg.config_plane.port = shape.port;
  cfg.threads = threads;
  if (shape.selftest) {
    cfg.health.selftest = true;
    cfg.health.fault_rate = kFaultRate;
    cfg.health.quarantine_threshold = kQuarantineThreshold;
    cfg.health.fault_seed = fault_seed_for(cfg, seed, shape.max_side);
  }
  // CLI defaults: 2 ms mean interarrival, 20 ms mean duration, half the
  // functions gated-clock; sides 2 to the shape's maximum.
  sched::WorkloadParams params;
  params.pattern = sched::ArrivalPattern::kPoisson;
  params.task_count = shape.tasks;
  params.max_side = std::min(shape.max_side, kSide);
  params.seed = seed;
  in.tasks = sched::WorkloadGenerator(params).generate();
  return in;
}

/// One measured execution of a fleet input.
struct FleetRun {
  runtime::FleetReport report;
  std::vector<int> assignment;  ///< dispatch() result, one per task
  double seconds = 0.0;         ///< first submit -> run() return
  double admit_ms = 0.0;        ///< traced: admission spans, summed
  double unattributed_ms = 0.0; ///< traced: phase time no layer span covers
};

FleetRun execute(const FleetInput& in, SpanLog& log, std::int64_t request,
                 std::vector<double>* admit_us) {
  runtime::FleetManager fleet(in.cfg);
  FleetRun out;
  int phase_id = -1;
  const auto t0 = Clock::now();
  {
    Scope phase(log, "bench.measured", request);
    phase_id = phase.id();
    for (std::size_t i = 0; i < in.tasks.size(); ++i) {
      Scope admit(log, "runtime.admit", static_cast<std::int64_t>(i));
      fleet.submit(in.tasks[i]);
      fleet.dispatch();
    }
    out.assignment = fleet.dispatch();
    Scope run(log, "runtime.run", request);
    out.report = fleet.run();
  }
  out.seconds = seconds_since(t0);
  if (phase_id >= 0) {
    out.unattributed_ms = log.self_ms(phase_id);
    for (std::size_t i = static_cast<std::size_t>(phase_id) + 1;
         i < log.spans().size(); ++i) {
      const Span& s = log.spans()[i];
      if (s.parent != phase_id || std::string(s.name) != "runtime.admit")
        continue;
      out.admit_ms += SpanLog::ms(s);
      if (admit_us) admit_us->push_back(SpanLog::ms(s) * 1e3);
    }
  }
  return out;
}

/// Simulated outcome of one fleet input (identical on every repetition).
struct SimOutcome {
  std::vector<double> waits_ms;  ///< allocation delay of every placed task
  int completed = 0;
  double makespan_s = 0.0;
  double port_ms = 0.0;          ///< replayed configuration-port time
  long long cells_written = 0;   ///< logic cells configured or cleared
  bool operator==(const SimOutcome&) const = default;
};

SimOutcome sim_outcome(const runtime::FleetReport& report, int cells_per_clb) {
  SimOutcome o;
  o.completed = report.completed;
  o.makespan_s = report.makespan.seconds();
  for (const runtime::DeviceReport& d : report.devices) {
    o.port_ms += d.batch.time.milliseconds();
    for (const sched::TaskRecord& t : d.stats.tasks) {
      if (t.rejected) continue;
      o.waits_ms.push_back(t.allocation_delay().milliseconds());
      if (!t.slot.empty())
        o.cells_written += 2LL * t.slot.area() * cells_per_clb;
    }
  }
  return o;
}

// ---- serial replay ------------------------------------------------------------

struct DeviceReplay {
  sched::RunStats stats;
  runtime::BatchStats batch;
  double sched_ms = 0.0;
  double fabric_ms = 0.0;
  double config_ms = 0.0;
};

/// Device `d`'s run, the way FleetManager::run_device performs it, with each
/// layer's call under its own span.
DeviceReplay replay_device(const runtime::FleetConfig& cfg, int d,
                           const std::vector<sched::AppSpec>& apps,
                           SpanLog& log) {
  DeviceReplay out;
  const auto geom = fabric::DeviceGeometry::tiny(cfg.rows, cfg.cols);
  const runtime::ConfigPlaneSpec plane = cfg.plane_for(d);
  const std::unique_ptr<config::ConfigPort> port = config::make_port(plane.port);
  const reloc::RelocationCostModel cost(geom, *port, {}, plane.granularity);

  health::FaultMap faults;
  {
    sched::Scheduler scheduler(cfg.rows, cfg.cols, cost, cfg.sched);
    if (cfg.health.enabled()) {
      faults = health::FaultInjector(cfg.rows, cfg.cols, geom.cells_per_clb,
                                     cfg.health.fault_rate,
                                     device_fault_seed(cfg.health.fault_seed, d))
                   .generate();
      sched::SelfTestConfig st;
      st.enabled = true;
      st.window_cols = cfg.health.window_cols;
      st.step_period_ms = cfg.health.step_period_ms;
      st.cells_per_clb = geom.cells_per_clb;
      scheduler.enable_selftest(st, &faults);
    }
    const auto t0 = Clock::now();
    Scope span(log, "sched.run_apps", d);
    out.stats = scheduler.run_apps(apps, cfg.overlap);
    out.sched_ms = seconds_since(t0) * 1e3;
  }

  auto t0 = Clock::now();
  std::unique_ptr<fabric::Fabric> fab;
  {
    Scope span(log, "fabric.bringup", d);
    fab = std::make_unique<fabric::Fabric>(geom);
  }
  out.fabric_ms = seconds_since(t0) * 1e3;
  if (cfg.health.enabled()) faults.install(*fab);

  t0 = Clock::now();
  {
    Scope span(log, "config.replay", d);
    const config::KernelBackend* kernel =
        cfg.kernel.empty() ? nullptr : config::kernel_backend(cfg.kernel);
    config::ConfigController controller(*fab, *port, plane.granularity, kernel);
    runtime::BatchOptions bopt = cfg.batch;
    if (!cfg.batch_config) bopt.max_ops = 1;
    runtime::TransactionBatcher batcher(controller, bopt);

    // Per-task configure at config_start and clear at finish, event-ordered
    // with clears first on ties — the stream run_device replays.
    struct ReplayEvent {
      SimTime at;
      bool clear;
      std::size_t task;
    };
    std::vector<ReplayEvent> events;
    for (std::size_t i = 0; i < out.stats.tasks.size(); ++i) {
      const auto& task = out.stats.tasks[i];
      if (task.rejected || task.slot.empty()) continue;
      events.push_back({task.config_start, false, i});
      events.push_back({task.finish, true, i});
    }
    std::stable_sort(events.begin(), events.end(),
                     [](const ReplayEvent& a, const ReplayEvent& b) {
                       if (a.at != b.at) return a.at < b.at;
                       return a.clear && !b.clear;
                     });
    for (const ReplayEvent& ev : events) {
      const auto& task = out.stats.tasks[ev.task];
      config::ConfigOp op(ev.clear ? task.name + " clear" : task.name);
      for (int r = task.slot.row; r < task.slot.row_end(); ++r) {
        for (int c = task.slot.col; c < task.slot.col_end(); ++c) {
          for (int k = 0; k < geom.cells_per_clb; ++k) {
            if (ev.clear) {
              op.clear_cell(ClbCoord{r, c}, k);
              continue;
            }
            fabric::LogicCellConfig cell;
            cell.used = true;
            cell.reg = fabric::RegMode::kFF;
            cell.lut = static_cast<std::uint16_t>(
                (2654435761u * (static_cast<unsigned>(ev.task) + 1) +
                 40503u * static_cast<unsigned>(k)) >>
                12);
            op.write_cell(ClbCoord{r, c}, k, cell);
          }
        }
      }
      batcher.enqueue(op);
    }
    batcher.flush();
    out.batch = batcher.stats();
  }
  out.config_ms = seconds_since(t0) * 1e3;
  return out;
}

/// First difference between the replay and the fleet's device report, or ""
/// when they agree exactly.
std::string diff_device(const DeviceReplay& r, const runtime::DeviceReport& f) {
  const sched::RunStats& a = r.stats;
  const sched::RunStats& b = f.stats;
  if (a.tasks.size() != b.tasks.size()) return "task count";
  for (std::size_t i = 0; i < a.tasks.size(); ++i) {
    const sched::TaskRecord& x = a.tasks[i];
    const sched::TaskRecord& y = b.tasks[i];
    if (x.name != y.name || x.clbs != y.clbs || x.slot != y.slot ||
        x.ready != y.ready || x.eligible != y.eligible ||
        x.config_start != y.config_start || x.run_start != y.run_start ||
        x.finish != y.finish || x.halted != y.halted ||
        x.rejected != y.rejected)
      return "task record " + std::to_string(i) + " (" + x.name + ")";
  }
  if (a.move_times != b.move_times) return "move times";
  if (a.makespan != b.makespan) return "makespan";
  if (a.config_port_busy != b.config_port_busy) return "config port busy";
  if (a.total_halted != b.total_halted) return "total halted";
  if (a.rearrangement_moves != b.rearrangement_moves) return "moves";
  if (a.moved_clbs != b.moved_clbs) return "moved clbs";
  if (a.rejected != b.rejected) return "rejected";
  if (a.swept_clbs != b.swept_clbs || a.tested_clbs != b.tested_clbs ||
      a.sweep_rotations != b.sweep_rotations ||
      a.selftest_moves != b.selftest_moves ||
      a.faults_detected != b.faults_detected ||
      a.faulty_clbs != b.faulty_clbs)
    return "self-test counters";
  if (a.utilization_avg != b.utilization_avg ||
      a.fragmentation_avg != b.fragmentation_avg ||
      a.fragmentation_max != b.fragmentation_max)
    return "utilization/fragmentation";
  const runtime::BatchStats& p = r.batch;
  const runtime::BatchStats& q = f.batch;
  if (p.ops_in != q.ops_in || p.transactions != q.transactions ||
      p.column_writes != q.column_writes ||
      p.unbatched_column_writes != q.unbatched_column_writes ||
      p.frames_written != q.frames_written ||
      p.unbatched_frames != q.unbatched_frames ||
      p.frames_skipped != q.frames_skipped ||
      p.unbatched_frames_skipped != q.unbatched_frames_skipped ||
      p.time != q.time || p.unbatched_time != q.unbatched_time)
    return "batch stats";
  return "";
}

// ---- the workload -------------------------------------------------------------

void run_fleet(const FleetShape& shape, const Options& opt, SpanLog& log,
               Result& result) {
  const int K = shape.inputs;
  const auto geom = fabric::DeviceGeometry::tiny(kSide, kSide);

  // Set-up, several times: input generation, cold routing-skeleton acquire
  // with the first Fabric, fleet-manager construction.
  std::vector<FleetInput> inputs;
  std::vector<double> setup_s;
  std::vector<double> cold_ms;
  for (int pass = 0; pass < kSetupPasses; ++pass) {
    fabric::clear_routing_skeleton_cache();
    const auto t0 = Clock::now();
    inputs.clear();
    for (int k = 0; k < K; ++k)
      inputs.push_back(make_input(shape, derive_seed(opt.seed, k), opt.threads));
    const auto tf = Clock::now();
    { fabric::Fabric fab(geom); }
    cold_ms.push_back(seconds_since(tf) * 1e3);
    for (const FleetInput& in : inputs) runtime::FleetManager fleet(in.cfg);
    setup_s.push_back(seconds_since(t0));
  }
  std::vector<double> warm_ms;
  for (int i = 0; i < kBringupSamples; ++i) {
    const auto t0 = Clock::now();
    { fabric::Fabric fab(geom); }
    warm_ms.push_back(seconds_since(t0) * 1e3);
  }

  // Measured phase. Traced runs alternate untraced and traced cycles so the
  // tracing overhead is measured on the same inputs in the same process.
  std::vector<std::vector<double>> untraced_s(K), traced_s(K), admit_ms(K),
      unattributed_ms(K);
  std::vector<double> admit_us;
  std::vector<double> report_ms;
  // Each input's first repetition is the reference every later one must
  // reproduce exactly: the report document and the simulated outcome.
  std::vector<FleetRun> reference(K);
  std::vector<SimOutcome> outcome(K);
  std::vector<std::size_t> fingerprint(K, 0);
  std::vector<bool> have_reference(K, false);
  run_cycles(K, opt.seconds, 2, [&](int k, int cycle) {
    const bool traced = opt.trace && cycle % 2 == 1;
    log.set_recording(traced);
    FleetRun run = execute(inputs[static_cast<std::size_t>(k)], log, k,
                           traced ? &admit_us : nullptr);
    log.set_recording(false);
    (traced ? traced_s : untraced_s)[k].push_back(run.seconds);
    if (traced) {
      admit_ms[k].push_back(run.admit_ms);
      unattributed_ms[k].push_back(run.unattributed_ms);
    }

    // Correctness gates.
    const runtime::FleetReport& rep = run.report;
    const int tasks = static_cast<int>(inputs[k].tasks.size());
    result.attempt(tasks);
    if (rep.rejected > 0)
      result.fail("input " + std::to_string(k) + ": " +
                      std::to_string(rep.rejected) + " tasks rejected",
                  rep.rejected);
    const auto admission_rejected =
        rep.aggregate.counter_value("admission_rejected");
    if (rep.admitted != rep.completed + rep.rejected - admission_rejected)
      result.fail("input " + std::to_string(k) +
                  ": counting identity admitted == completed + rejected - "
                  "admission_rejected broken");
    const auto t0 = Clock::now();
    const std::size_t fp = std::hash<std::string>{}(rep.to_json());
    report_ms.push_back(seconds_since(t0) * 1e3);
    SimOutcome o = sim_outcome(rep, geom.cells_per_clb);
    if (!have_reference[k]) {
      have_reference[k] = true;
      fingerprint[k] = fp;
      outcome[k] = std::move(o);
      reference[k] = std::move(run);
    } else if (fp != fingerprint[k] || !(o == outcome[k])) {
      result.fail("input " + std::to_string(k) +
                  ": simulated results differ between repeats");
    }
  });

  // Simulated metrics, pooled over the inputs.
  std::vector<double> waits;
  double makespan_s = 0.0, port_ms = 0.0;
  long long completed = 0, cells = 0;
  for (const SimOutcome& o : outcome) {
    waits.insert(waits.end(), o.waits_ms.begin(), o.waits_ms.end());
    completed += o.completed;
    makespan_s += o.makespan_s;
    port_ms += o.port_ms;
    cells += o.cells_written;
  }
  // The median fleet, not the mean: a few congested fleets of a run take up
  // to 20x the typical host time, and the mean follows wherever they fall.
  std::vector<double> fleet_s;
  for (const std::vector<double>& reps : untraced_s)
    fleet_s.push_back(median(reps));
  result.set("setup_s", median(setup_s));
  result.set("run_s", median(fleet_s));
  result.set("sim_wait_ms_p50", quantile(waits, 0.50));
  result.set("sim_wait_ms_p99", quantile(waits, 0.99));
  result.set("sim_ops_per_s", makespan_s > 0 ? completed / makespan_s : 0.0);
  result.set("sim_port_ms_per_cell", cells > 0 ? port_ms / cells : 0.0);

  if (!opt.trace) return;

  // Serial replay of every input's devices, cross-checked against the
  // fleet's own reports.
  double sched_sum = 0.0, sched_max = 0.0, skew = 0.0, config_ms = 0.0;
  long long replay_tasks = 0;
  long long moves = 0, moved_clbs = 0, rejected = 0, selftest_moves = 0,
            faulty_clbs = 0, ops = 0, transactions = 0, frames_written = 0,
            frames_skipped = 0, rebalanced = 0, quarantined = 0;
  std::vector<double> device_fabric_ms;
  for (int k = 0; k < K; ++k) {
    const FleetInput& in = inputs[static_cast<std::size_t>(k)];
    const FleetRun& ref = reference[static_cast<std::size_t>(k)];
    log.set_recording(true);
    Scope span(log, "bench.replay", k);
    double sum = 0.0, mx = 0.0;
    for (int d = 0; d < kDevices; ++d) {
      std::vector<sched::AppSpec> apps;
      for (std::size_t i = 0; i < in.tasks.size(); ++i) {
        if (ref.assignment[i] != d) continue;
        sched::AppSpec app;
        app.name = in.tasks[i].fn.name;
        app.functions = {in.tasks[i].fn};
        app.start = in.tasks[i].arrival;
        apps.push_back(std::move(app));
      }
      const DeviceReplay r = replay_device(in.cfg, d, apps, log);
      const runtime::DeviceReport& f =
          ref.report.devices[static_cast<std::size_t>(d)];
      const std::string diff = diff_device(r, f);
      if (!diff.empty())
        result.fail("input " + std::to_string(k) + " device " +
                    std::to_string(d) + ": replay differs from the fleet (" +
                    diff + ")");
      sum += r.sched_ms;
      mx = std::max(mx, r.sched_ms);
      config_ms += r.config_ms;
      device_fabric_ms.push_back(r.fabric_ms);
      replay_tasks += static_cast<long long>(r.stats.tasks.size());
      moves += r.stats.rearrangement_moves;
      moved_clbs += r.stats.moved_clbs;
      rejected += r.stats.rejected;
      selftest_moves += r.stats.selftest_moves;
      faulty_clbs += r.stats.faulty_clbs;
      ops += r.batch.ops_in;
      transactions += r.batch.transactions;
      frames_written += r.batch.frames_written;
      frames_skipped += r.batch.frames_skipped;
    }
    sched_sum += sum;
    sched_max += mx;
    skew += sum > 0 ? mx / (sum / kDevices) : 0.0;
    rebalanced += ref.report.rebalanced;
    quarantined += ref.report.quarantined;
  }
  log.set_recording(false);
  warm_ms.insert(warm_ms.end(), device_fabric_ms.begin(),
                 device_fabric_ms.end());

  const double untraced = mean_of_medians(untraced_s);
  const double traced = mean_of_medians(traced_s);
  result.set("runtime.admit_ms", mean_of_medians(admit_ms));
  result.set("runtime.admit_us_p50", quantile(admit_us, 0.50));
  result.set("runtime.admit_us_p99", quantile(admit_us, 0.99));
  result.set("runtime.rebalanced", static_cast<double>(rebalanced));
  result.set("runtime.quarantined", static_cast<double>(quarantined));
  result.set("runtime.report_ms", median(report_ms));
  result.set("sched.run_ms_sum", sched_sum / K);
  result.set("sched.run_ms_max", sched_max / K);
  result.set("sched.skew", skew / K);
  result.set("sched.us_per_task",
             replay_tasks > 0 ? sched_sum * 1e3 / replay_tasks : 0.0);
  result.set("sched.moves", static_cast<double>(moves));
  result.set("sched.moved_clbs", static_cast<double>(moved_clbs));
  result.set("sched.rejected", static_cast<double>(rejected));
  result.set("sched.selftest_moves", static_cast<double>(selftest_moves));
  result.set("sched.faulty_clbs", static_cast<double>(faulty_clbs));
  result.set("fabric.bringup_ms", median(warm_ms));
  result.set("fabric.cold_bringup_ms", median(cold_ms));
  result.set("config.replay_ms", config_ms / K);
  result.set("config.ops", static_cast<double>(ops));
  result.set("config.transactions", static_cast<double>(transactions));
  result.set("config.frames_written", static_cast<double>(frames_written));
  result.set("config.frames_skipped", static_cast<double>(frames_skipped));
  // Layers this workload does not run.
  for (const char* idle :
       {"place.implement_ms", "reloc.relocate_ms", "reloc.cell_ms_p50",
        "reloc.cells", "reloc.ops", "reloc.frames_written", "sim.events",
        "sim.ns_per_event", "sim.step_us_before", "sim.step_us_after"})
    result.set(idle, 0.0);
  result.set("bench.trace_overhead_pct",
             untraced > 0 ? (traced - untraced) / untraced * 100.0 : 0.0);
  result.set("bench.unattributed_ms", mean_of_medians(unattributed_ms));
}

}  // namespace

void run_fleet_packed(const Options& opt, SpanLog& log, Result& result) {
  FleetShape shape;
  shape.port = config::PortBackend::kJtag;
  shape.inputs = 2;
  run_fleet(shape, opt, log, result);
}

void run_fleet_selftest(const Options& opt, SpanLog& log, Result& result) {
  FleetShape shape;
  shape.selftest = true;
  shape.port = config::PortBackend::kSelectMap8;
  // At 1% faulty cells only ~43% of 24x24 devices keep a fault-free 10x10
  // square, so tasks of up to 10 sides are rejected on some seeds; every
  // sampled device keeps a 6x6 one.
  shape.max_side = 6;
  // Host time and waits of one fleet vary widely across seeds. Pooling many
  // short fleets buys the steadiest figures per second of run time.
  shape.tasks = 500;
  shape.inputs = 100;
  run_fleet(shape, opt, log, result);
}

}  // namespace e2e
