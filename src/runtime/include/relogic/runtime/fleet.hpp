// relogic::runtime — fleet-level run-time manager.
//
// The paper's run-time manager (relogic::sched) schedules functions onto
// ONE device. FleetManager scales that out: it owns N independent device
// contexts, admits a stream of application / task requests through an
// admission queue, picks a device per request with a pluggable dispatch
// policy, and executes every device's discrete-event run on a worker
// thread pool. Devices are fully isolated — each worker builds its own
// fabric, configuration port, cost model and scheduler, so runs are
// deterministic regardless of thread count, and a fleet run with the same
// seed produces byte-identical telemetry JSON.
//
// Admission is *online*, mirroring the paper's run-time manager: requests
// are dispatched one event at a time, in arrival order, each against the
// occupancy ledger as it stands at that request's arrival — capacity tied
// up by departed tasks has already been reclaimed. Submission can be
// incremental (submit, dispatch, submit more, dispatch again); earlier
// placements are never recomputed, only extended. A live rebalancing pass
// migrates queued-but-not-started requests off a device whose estimated
// backlog exceeds a configurable threshold onto the least-backlogged peer
// (counted as `rebalanced_requests` in the fleet telemetry). The previous
// one-shot batch planner is kept, faithfully, as AdmissionMode::kOffline:
// it walks the same arrival order against the same departure-reclaiming
// ledger, but books every request as starting at its arrival (no queueing
// estimates), never rebalances, and re-plans the whole batch on every
// dispatch. That is the baseline bench_fleet_online measures the online
// loop against.
//
// Alongside the area-level schedule, each device replays the configuration
// traffic of its admitted tasks — a per-task op sequence: the initial
// partial configuration at config_start and the teardown clear at finish,
// event-ordered — against a real Fabric + ConfigController through a
// TransactionBatcher, so fleet reports carry honest configuration-port
// transaction counts: batched versus the one-transaction-per-op baseline on
// the same workload, with kDirtyFrame's configure/clear cancellations
// showing up in frame_writes_dirty_skipped at fleet scale.
#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "relogic/config/controller.hpp"
#include "relogic/health/fault.hpp"
#include "relogic/obs/timeline.hpp"
#include "relogic/obs/trace.hpp"
#include "relogic/runtime/batcher.hpp"
#include "relogic/runtime/telemetry.hpp"
#include "relogic/sched/scheduler.hpp"
#include "relogic/sched/workload.hpp"

namespace relogic::runtime {

/// How the admission queue maps requests to devices.
enum class DispatchPolicy {
  kRoundRobin,   ///< cycle through devices in id order
  kLeastLoaded,  ///< device with the most estimated free CLBs at arrival
  kBestFit,      ///< device whose estimated free CLBs tightest-fit the
                 ///< request's footprint (falls back to least-loaded)
};

std::string to_string(DispatchPolicy p);
std::optional<DispatchPolicy> parse_dispatch_policy(const std::string& name);

/// When placement decisions are made.
enum class AdmissionMode {
  kOnline,   ///< event-ordered: each request placed at its arrival time
             ///< against the live, queue-aware ledger; supports
             ///< incremental submission and rebalancing
  kOffline,  ///< one-shot batch re-plan (the PR 1 planner): arrival-sorted
             ///< against the departure-reclaiming ledger, but without
             ///< queueing estimates or rebalancing
};

std::string to_string(AdmissionMode m);
std::optional<AdmissionMode> parse_admission_mode(const std::string& name);

/// Fleet-level health policy: per-device roving self-test, deterministic
/// fault injection, and quarantine of degraded devices.
struct FleetHealthConfig {
  /// Run the roving self-test sweep on every device (sched::SelfTestConfig
  /// inside each device run; detection-time estimates at admission).
  bool selftest = false;
  /// Probability that any one logic cell carries an injected defect.
  /// Deterministic per (fault_seed, device): same fleet, same faults.
  double fault_rate = 0.0;
  std::uint64_t fault_seed = 1;
  /// Sweep shape (mirrored into every device's SelfTestConfig).
  int window_cols = 1;
  double step_period_ms = 5.0;
  /// Detected-faulty-CLB density above which a device is quarantined: it
  /// receives no further requests and its queued-but-not-started requests
  /// migrate to healthy peers. <= 0 disables quarantine.
  double quarantine_threshold = 0.0;

  bool enabled() const { return selftest; }
};

/// Time-series metrics plane (obs::MetricsTimeline): when enabled, every
/// device's discrete-event run snapshots its live telemetry registry each
/// sample_interval_ms of *simulated* time — the sampler ticks are DES
/// events, so the timelines are byte-identical across repeat runs and
/// worker-thread counts, and a fleet-aggregate timeline is folded from the
/// per-device ones after the pool joins (DESIGN.md §7.5).
struct MetricsConfig {
  /// Simulated-clock sampling period in milliseconds; <= 0 disables the
  /// metrics plane entirely (no live registry, no per-event overhead
  /// beyond one null-pointer test).
  double sample_interval_ms = 0.0;

  bool enabled() const { return sample_interval_ms > 0.0; }
  SimTime interval() const {
    return SimTime::ps(static_cast<std::int64_t>(sample_interval_ms * 1e9));
  }
};

/// Configuration-plane selection of one device: which physical port model
/// prices its configuration traffic and at what write granularity the
/// controller issues frames (config/granularity.hpp).
struct ConfigPlaneSpec {
  config::PortBackend port = config::PortBackend::kJtag;
  config::WriteGranularity granularity = config::WriteGranularity::kColumn;
};

struct FleetConfig {
  int devices = 4;
  /// Per-device CLB grid (every device of the fleet is identical).
  int rows = 24;
  int cols = 24;
  DispatchPolicy dispatch = DispatchPolicy::kLeastLoaded;
  AdmissionMode admission = AdmissionMode::kOnline;
  /// Online mode: after each admission, a device whose estimated backlog
  /// (remaining estimated work of everything on its ledger, in ms)
  /// exceeds this threshold sheds queued-but-not-started requests onto
  /// the least-backlogged peer — provided that peer is itself under the
  /// threshold (fleet-wide overload has nothing useful to shed), and at
  /// most a handful of migrations per admission event. <= 0 disables
  /// rebalancing.
  double rebalance_backlog_ms = 0.0;
  /// Per-device run-time manager configuration (management policy,
  /// placement, defrag options, ...).
  sched::SchedulerConfig sched;
  /// Intra-application parallelism passed to Scheduler::run_apps.
  int overlap = 1;
  /// Fleet-wide configuration plane (port backend + write granularity).
  ConfigPlaneSpec config_plane;
  /// Per-device overrides keyed by device id — heterogeneous fleets (e.g.
  /// a few ICAP-equipped dirty-diffing devices alongside a JTAG legacy
  /// pool) are a first-class scenario. Devices absent here use
  /// config_plane. Resolved via plane_for().
  std::map<int, ConfigPlaneSpec> device_config_planes;
  /// Source-compatibility field with no effect (config/kernel.hpp): empty
  /// or the single implementation's name ("scalar"). Any other value
  /// throws at fleet start.
  std::string kernel;
  /// Legacy flag: SelectMAP instead of Boundary-Scan. Kept for old callers;
  /// equivalent to config_plane.port = kSelectMap8 (only honoured while
  /// config_plane.port is still the default).
  bool use_selectmap = false;
  /// The fleet-wide default plane with the legacy use_selectmap flag
  /// folded in (what devices without an override run).
  ConfigPlaneSpec default_plane() const;
  /// The plane device `d` actually runs (override, else default_plane()).
  ConfigPlaneSpec plane_for(int d) const;
  /// Coalesce adjacent configuration ops per device (TransactionBatcher).
  bool batch_config = true;
  BatchOptions batch;
  /// Worker threads for the per-device runs; 0 = one per device, capped at
  /// hardware concurrency.
  int threads = 0;
  /// Roving self-test, fault injection and quarantine policy.
  FleetHealthConfig health;
  /// Sim-clock metrics sampling (off by default).
  MetricsConfig metrics;
};

/// Everything measured about one device's run.
struct DeviceReport {
  int device = 0;
  sched::RunStats stats;
  BatchStats batch;
  Telemetry telemetry;
  /// Sim-clock metrics timeline (empty unless FleetConfig::metrics is
  /// enabled). Sampled inside the device's DES run; the closing row sits at
  /// the device's makespan.
  obs::MetricsTimeline timeline;
};

struct FleetReport {
  FleetConfig config;
  std::vector<DeviceReport> devices;
  Telemetry aggregate;
  int admitted = 0;   ///< tasks (application functions) assigned to devices,
                      ///< including tasks their device later rejected
  int completed = 0;
  int rejected = 0;   ///< per-device rejects plus admission rejects
  int rebalanced = 0; ///< requests migrated between devices before starting
                      ///< (load rebalancing plus quarantine evacuations)
  int quarantined = 0;      ///< devices quarantined during admission
  int faulty_cells = 0;     ///< detected faulty cells across the fleet
  int tested_clbs = 0;      ///< CLBs pattern-tested across the fleet
  SimTime makespan = SimTime::zero();  ///< max over devices
  /// Counting identity (asserted in tests):
  ///   admitted == completed + rejected - admission_rejected
  /// where admission_rejected is the aggregate counter of requests no
  /// device could ever hold.

  /// Aggregate modelled throughput: completed tasks per second of
  /// simulated fleet time.
  double throughput_tasks_per_s() const;

  /// Deterministic JSON document (same seed => byte-identical output).
  std::string to_json() const;

  /// Fleet-aggregate metrics timeline: the per-device timelines folded in
  /// device-id order over the union of their sample times (carry-forward
  /// between a device's samples), rows tagged with the quarantined-device
  /// count. Empty unless FleetConfig::metrics is enabled.
  obs::MetricsTimeline timeline;

  /// Deterministic metrics document (obs::metrics_json_document over the
  /// aggregate and per-device timelines). Empty string when the metrics
  /// plane was off.
  std::string metrics_json() const;
};

class FleetManager {
 public:
  explicit FleetManager(FleetConfig config);

  const FleetConfig& config() const { return cfg_; }

  /// Admits a one-shot task.
  void submit(const sched::TaskArrival& task);
  /// Admits an application (its function chain stays on one device).
  void submit(const sched::AppSpec& app);
  void submit_all(const std::vector<sched::TaskArrival>& tasks);

  std::size_t pending_requests() const { return queue_.size(); }

  /// Places every not-yet-placed request onto a device. Online mode walks
  /// the new requests in arrival order, placing each against the ledger at
  /// its arrival time and rebalancing after every admission; offline mode
  /// recomputes the whole batch. Returns one device index per submitted
  /// request, in submission order (-1 = rejected at admission: no device
  /// can ever hold the request). Idempotent until the next submit; run()
  /// calls it implicitly.
  const std::vector<int>& dispatch();

  /// Requests migrated by the rebalancer so far (reset by run()).
  int rebalanced_requests() const { return rebalanced_; }

  /// Cross-checks the admission ledger against the request queue: every
  /// live entry references a valid request, matches assignment_ and the
  /// request's footprint, spans a non-inverted [est_start, est_end], and no
  /// request sits on two devices at once. Throws AuditError on the first
  /// divergence. Always compiled (tests call it directly); dispatch() calls
  /// it at the end of every admission pass when audit_enabled().
  void audit_admission() const;

  /// Attaches a tracer for subsequent dispatch()/run() calls (nullptr
  /// detaches). Registers every track up front — fleet lanes on pid 0,
  /// one pid per device with scheduler/tasks/port/health/telemetry lanes —
  /// so worker threads never touch the track registry; each track has a
  /// single writer and export order is fixed, which is what makes the
  /// trace byte-identical across thread counts (DESIGN.md §7). Call before
  /// the first submit()/dispatch() of the run to capture admission events.
  void set_tracer(obs::Tracer* tracer);

  /// Dispatches, executes every device run on the worker pool, and
  /// gathers telemetry. Leaves the admission queue empty.
  ///
  /// Threading contract (DESIGN.md §8.1): admission state (queue_, ledger_,
  /// assignment_, ...) is confined to the caller's thread — submit(),
  /// dispatch() and run() must not be called concurrently. run() is the
  /// only method that spawns threads, and its workers share exactly two
  /// pieces of mutable state: an atomic work counter handing out device
  /// ids, and a mutex-guarded error list (both annotated, both local to
  /// run()). Everything else a worker touches is either const member state
  /// or its own disjoint report.devices slot, which is why the report is
  /// byte-identical across thread counts.
  FleetReport run();

 private:
  struct Request {
    sched::AppSpec app;
    int footprint_clbs = 0;  ///< largest concurrent function footprint
    SimTime duration = SimTime::zero();  ///< sum of function durations
  };

  /// One placed request on a device's occupancy ledger. est_start folds in
  /// estimated queueing on that device: the earliest time the ledger says
  /// enough CLBs are free. A request with est_start in the future is
  /// "queued-but-not-started" — the rebalancer may still migrate it.
  struct LedgerEntry {
    std::size_t req = 0;  ///< index into queue_ / assignment_
    SimTime est_start = SimTime::zero();
    SimTime est_end = SimTime::zero();
    int clbs = 0;
  };

  /// Builds the per-device fault maps and detection-time estimates (no-op
  /// unless health is enabled or the maps already exist).
  void ensure_health_state();
  /// Detected-faulty CLBs on device d by time t, per the admission-side
  /// detection-time estimate: a fault in column c is found when the
  /// first-rotation sweep window reaches c (step_period_ms per step).
  int detected_faulty_clbs(int d, SimTime t) const;
  /// Quarantines any device whose detected fault density crossed the
  /// threshold by `now`, evacuating its queued-but-not-started requests.
  void maybe_quarantine(SimTime now);
  /// Non-faulty CLBs of device d at time t.
  int capacity_at(int d, SimTime t) const;
  /// Least-backlogged eligible peer (quarantined devices excluded unless
  /// the whole fleet is, matching pick_device) other than `exclude`, with
  /// capacity_at >= min_capacity. Returns {-1, +inf} when none qualifies.
  /// Shared by the load rebalancer and quarantine evacuation.
  std::pair<int, double> least_backlogged_peer(SimTime now, int exclude,
                                               int min_capacity) const;

  /// Estimated free CLBs on device d at time t (can go negative when the
  /// fleet is oversubscribed). Subtracts capacity lost to detected faults.
  int free_at(int d, SimTime t) const;
  /// Estimated remaining work on device d at time t, in milliseconds.
  double backlog_ms(int d, SimTime t) const;
  /// Earliest time >= t a given entry list estimates `clbs` CLBs free,
  /// against `capacity` total CLBs.
  SimTime est_start_in(const std::vector<LedgerEntry>& entries, SimTime t,
                       int clbs, int capacity) const;
  /// Earliest time >= t the ledger estimates `clbs` CLBs free on d.
  SimTime est_start_on(int d, SimTime t, int clbs) const;
  /// Applies the configured dispatch policy against the ledger at `now`
  /// (advances the round-robin cursor when that policy is active).
  int pick_device(SimTime now, int footprint);
  void place(std::size_t qi, int d, SimTime now, bool queue_aware);
  /// Re-derives est_start/est_end for device d's queued-but-not-started
  /// entries after the rebalancer shed one of them.
  void refresh_queued_estimates(int d, SimTime now);
  /// Sheds queued-but-not-started entries from over-threshold devices onto
  /// the least-backlogged peer while that strictly reduces the imbalance.
  void rebalance(SimTime now);

  DeviceReport run_device(int device,
                          const std::vector<sched::AppSpec>& apps) const;

  FleetConfig cfg_;
  std::vector<Request> queue_;
  std::vector<int> assignment_;
  std::vector<std::vector<LedgerEntry>> ledger_;
  std::size_t placed_ = 0;  ///< requests already processed (online mode)
  SimTime clock_ = SimTime::zero();  ///< admission event clock (online)
  int rebalanced_ = 0;
  bool dispatched_ = false;
  int rr_next_ = 0;
  // ---- health state (built by ensure_health_state) ------------------------
  std::vector<health::FaultMap> fault_maps_;  ///< injected ground truth
  /// Per device: sorted estimated detection times (ms) of its faulty CLBs.
  std::vector<std::vector<double>> fault_detect_ms_;
  std::vector<bool> quarantined_;
  int quarantined_count_ = 0;
  /// Admission-clock instants at which devices were quarantined (one entry
  /// per quarantined device, in quarantine order); tags the folded
  /// aggregate timeline's rows with the quarantined-device count.
  std::vector<SimTime> quarantine_times_;
  // ---- tracing (set_tracer) -----------------------------------------------
  struct DeviceTrace {
    obs::TraceTrack sched;   ///< DES lane (placement/config/relocation)
    obs::TraceTrack tasks;   ///< per-task queue/run spans
    obs::TraceTrack port;    ///< ConfigController replay transactions
    obs::TraceTrack health;  ///< sweep windows, detections, rotations
    obs::TraceTrack meter;   ///< telemetry counter samples
  };
  obs::Tracer* tracer_ = nullptr;
  obs::TraceTrack tr_admission_;  ///< admission instants + dispatch spans
  obs::TraceTrack tr_queue_;      ///< estimated queue-wait spans
  obs::TraceTrack tr_health_;     ///< quarantine / evacuation instants
  obs::TraceTrack tr_meter_;      ///< fleet-aggregate counter samples
  std::vector<DeviceTrace> device_trace_;
};

}  // namespace relogic::runtime
