#include "relogic/runtime/fleet.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <limits>
#include <memory>
#include <numeric>
#include <sstream>
#include <thread>
#include <utility>

#include "relogic/common/audit.hpp"
#include "relogic/common/logging.hpp"
#include "relogic/common/thread_annotations.hpp"
#include "relogic/reloc/cost.hpp"

namespace relogic::runtime {

std::string to_string(DispatchPolicy p) {
  switch (p) {
    case DispatchPolicy::kRoundRobin:
      return "round-robin";
    case DispatchPolicy::kLeastLoaded:
      return "least-loaded";
    case DispatchPolicy::kBestFit:
      return "best-fit";
  }
  return "?";
}

std::optional<DispatchPolicy> parse_dispatch_policy(const std::string& name) {
  if (name == "rr" || name == "round-robin") return DispatchPolicy::kRoundRobin;
  if (name == "ll" || name == "least-loaded")
    return DispatchPolicy::kLeastLoaded;
  if (name == "bf" || name == "best-fit") return DispatchPolicy::kBestFit;
  return std::nullopt;
}

std::string to_string(AdmissionMode m) {
  switch (m) {
    case AdmissionMode::kOnline:
      return "online";
    case AdmissionMode::kOffline:
      return "offline";
  }
  return "?";
}

std::optional<AdmissionMode> parse_admission_mode(const std::string& name) {
  if (name == "online") return AdmissionMode::kOnline;
  if (name == "offline") return AdmissionMode::kOffline;
  return std::nullopt;
}

ConfigPlaneSpec FleetConfig::default_plane() const {
  ConfigPlaneSpec plane = config_plane;
  if (use_selectmap && plane.port == config::PortBackend::kJtag)
    plane.port = config::PortBackend::kSelectMap8;
  return plane;
}

ConfigPlaneSpec FleetConfig::plane_for(int d) const {
  const auto it = device_config_planes.find(d);
  return it != device_config_planes.end() ? it->second : default_plane();
}

FleetManager::FleetManager(FleetConfig config) : cfg_(std::move(config)) {
  RELOGIC_CHECK(cfg_.devices >= 1);
  RELOGIC_CHECK(cfg_.rows >= 1 && cfg_.cols >= 1);
  RELOGIC_CHECK(cfg_.overlap >= 1);
  RELOGIC_CHECK(cfg_.health.fault_rate >= 0.0 &&
                cfg_.health.fault_rate <= 1.0);
  RELOGIC_CHECK(cfg_.health.window_cols >= 1);
  RELOGIC_CHECK(cfg_.health.step_period_ms > 0.0);
  // FleetConfig::kernel is a source-compatibility field (kernel.hpp): only
  // empty or the single implementation's name is accepted.
  if (!cfg_.kernel.empty())
    RELOGIC_CHECK_MSG(config::kernel_backend(cfg_.kernel) != nullptr,
                      "unknown kernel backend \"" + cfg_.kernel + "\"");
  // A plane override for a device that doesn't exist would silently turn a
  // "heterogeneous" run homogeneous — reject it up front.
  for (const auto& [d, plane] : cfg_.device_config_planes)
    RELOGIC_CHECK_MSG(d >= 0 && d < cfg_.devices,
                      "device_config_planes override for nonexistent device " +
                          std::to_string(d));
  ledger_.resize(static_cast<std::size_t>(cfg_.devices));
  quarantined_.assign(static_cast<std::size_t>(cfg_.devices), false);
}

void FleetManager::set_tracer(obs::Tracer* tracer) {
  tracer_ = tracer;
  tr_admission_ = {};
  tr_queue_ = {};
  tr_health_ = {};
  tr_meter_ = {};
  device_trace_.clear();
  if (!tracer) return;
  // Track registration order is the export order; fixed here, once, on the
  // caller's thread, so the trace is identical no matter how many workers
  // later write into the per-device tracks.
  tr_admission_ = tracer->track(0, 0, "fleet", "admission");
  tr_queue_ = tracer->track(0, 1, "fleet", "queue");
  tr_health_ = tracer->track(0, 2, "fleet", "health");
  tr_meter_ = tracer->track(0, 3, "fleet", "telemetry");
  device_trace_.resize(static_cast<std::size_t>(cfg_.devices));
  for (int d = 0; d < cfg_.devices; ++d) {
    const std::string proc = "device " + std::to_string(d);
    DeviceTrace& t = device_trace_[static_cast<std::size_t>(d)];
    t.sched = tracer->track(d + 1, 0, proc, "scheduler");
    t.tasks = tracer->track(d + 1, 1, proc, "tasks");
    t.port = tracer->track(d + 1, 2, proc, "config-port");
    t.health = tracer->track(d + 1, 3, proc, "health");
    t.meter = tracer->track(d + 1, 4, proc, "telemetry");
  }
}

void FleetManager::ensure_health_state() {
  if (!cfg_.health.enabled() || !fault_maps_.empty()) return;
  const auto geom = fabric::DeviceGeometry::tiny(cfg_.rows, cfg_.cols);
  fault_maps_.reserve(static_cast<std::size_t>(cfg_.devices));
  fault_detect_ms_.resize(static_cast<std::size_t>(cfg_.devices));
  for (int d = 0; d < cfg_.devices; ++d) {
    // Golden-ratio mix keeps per-device fault populations independent while
    // staying a pure function of (fault_seed, device).
    const std::uint64_t seed =
        cfg_.health.fault_seed + 0x9e3779b97f4a7c15ull *
                                     (static_cast<std::uint64_t>(d) + 1);
    health::FaultInjector injector(cfg_.rows, cfg_.cols, geom.cells_per_clb,
                                   cfg_.health.fault_rate, seed);
    fault_maps_.push_back(injector.generate());

    // Admission-side detection-time estimate: a faulty CLB in column c is
    // found when the first-rotation window reaches c. The device-side sweep
    // may drift later (occupied windows retry), so these are estimates —
    // exactly like every other quantity on the admission ledger.
    auto& detect = fault_detect_ms_[static_cast<std::size_t>(d)];
    ClbCoord last{-1, -1};
    for (const auto& rec : fault_maps_.back().records()) {
      if (rec.clb == last) continue;  // one entry per faulty CLB
      last = rec.clb;
      detect.push_back(
          (rec.clb.col / cfg_.health.window_cols + 1) *
          cfg_.health.step_period_ms);
    }
    std::sort(detect.begin(), detect.end());
  }
}

int FleetManager::detected_faulty_clbs(int d, SimTime t) const {
  if (fault_detect_ms_.empty()) return 0;
  const auto& detect = fault_detect_ms_[static_cast<std::size_t>(d)];
  return static_cast<int>(std::upper_bound(detect.begin(), detect.end(),
                                           t.milliseconds()) -
                          detect.begin());
}

int FleetManager::capacity_at(int d, SimTime t) const {
  return cfg_.rows * cfg_.cols - detected_faulty_clbs(d, t);
}

std::pair<int, double> FleetManager::least_backlogged_peer(
    SimTime now, int exclude, int min_capacity) const {
  int best = -1;
  double best_b = std::numeric_limits<double>::max();
  for (int d = 0; d < cfg_.devices; ++d) {
    if (d == exclude) continue;
    if (quarantined_[static_cast<std::size_t>(d)] &&
        quarantined_count_ < cfg_.devices)
      continue;
    if (capacity_at(d, now) < min_capacity) continue;
    const double b = backlog_ms(d, now);
    if (b < best_b) {
      best_b = b;
      best = d;
    }
  }
  return {best, best_b};
}

void FleetManager::maybe_quarantine(SimTime now) {
  if (cfg_.health.quarantine_threshold <= 0.0 || fault_maps_.empty() ||
      cfg_.devices < 2)
    return;
  const int total = cfg_.rows * cfg_.cols;
  for (int d = 0; d < cfg_.devices; ++d) {
    if (quarantined_[static_cast<std::size_t>(d)]) continue;
    const double density =
        static_cast<double>(detected_faulty_clbs(d, now)) / total;
    if (density <= cfg_.health.quarantine_threshold) continue;
    quarantined_[static_cast<std::size_t>(d)] = true;
    ++quarantined_count_;
    quarantine_times_.push_back(now);
    if (tr_health_)
      tr_health_.instant("health", "quarantine device " + std::to_string(d),
                         now,
                         {obs::arg("device", d),
                          obs::arg("fault_density", density)});
    RELOGIC_LOG(kInfo) << "device " << d << " quarantined (fault density "
                       << density << ")";
    // With the whole fleet quarantined there is no healthier peer —
    // shuffling queued work between equally degraded devices is pure churn
    // (same reasoning as the rebalancer under fleet-wide overload).
    if (quarantined_count_ >= cfg_.devices) continue;

    // Evacuate queued-but-not-started requests onto healthy peers (the
    // least-backlogged one re-ranked per migration, same as the
    // rebalancer; a request no healthy peer can hold stays and drains on
    // the quarantined device). Requests already (estimatedly) started
    // stay: their configuration is on the device and they will drain.
    auto& entries = ledger_[static_cast<std::size_t>(d)];
    for (std::size_t i = entries.size(); i-- > 0;) {
      if (entries[i].est_start <= now) continue;
      const int dst = least_backlogged_peer(now, d, entries[i].clbs).first;
      if (dst < 0) continue;
      const std::size_t qi = entries[i].req;
      entries.erase(entries.begin() + static_cast<std::ptrdiff_t>(i));
      place(qi, dst, now, /*queue_aware=*/true);
      ++rebalanced_;
      if (tr_health_)
        tr_health_.instant("health", "evacuate " + queue_[qi].app.name, now,
                           {obs::arg("from", d), obs::arg("to", dst)});
    }
    refresh_queued_estimates(d, now);
  }
}

void FleetManager::submit(const sched::TaskArrival& task) {
  sched::AppSpec app;
  app.name = task.fn.name;
  app.functions = {task.fn};
  app.start = task.arrival;
  submit(app);
}

void FleetManager::submit(const sched::AppSpec& app) {
  RELOGIC_CHECK_MSG(!app.functions.empty(), "application with no functions");
  Request req;
  req.app = app;
  for (const auto& fn : app.functions) {
    req.footprint_clbs = std::max(req.footprint_clbs, fn.clbs());
    req.duration += fn.duration;
  }
  queue_.push_back(std::move(req));
  dispatched_ = false;
}

void FleetManager::submit_all(const std::vector<sched::TaskArrival>& tasks) {
  for (const auto& t : tasks) submit(t);
}

int FleetManager::free_at(int d, SimTime t) const {
  // Committed load: every placed request occupies its footprint until its
  // estimated end, whether it has (estimatedly) started or is still queued
  // on the device — queued work is capacity the device has promised away.
  // Detected-faulty CLBs are capacity the device no longer has at all.
  int used = 0;
  for (const LedgerEntry& e : ledger_[static_cast<std::size_t>(d)])
    if (e.est_end > t) used += e.clbs;
  return cfg_.rows * cfg_.cols - detected_faulty_clbs(d, t) - used;
}

double FleetManager::backlog_ms(int d, SimTime t) const {
  double ms = 0.0;
  for (const LedgerEntry& e : ledger_[static_cast<std::size_t>(d)])
    if (e.est_end > t) ms += (e.est_end - std::max(e.est_start, t)).milliseconds();
  return ms;
}

SimTime FleetManager::est_start_in(const std::vector<LedgerEntry>& entries,
                                   SimTime t, int clbs, int capacity) const {
  int free = capacity;
  for (const LedgerEntry& e : entries)
    if (e.est_end > t) free -= e.clbs;
  if (free >= clbs) return t;
  // Walk future departures in end order, crediting capacity back until the
  // request fits. Everything on the ledger ends eventually; requests are
  // only placed on devices whose (fault-degraded) capacity covered them at
  // placement time, so the walk normally succeeds. If detection has since
  // shrunk capacity below clbs, the final fallback books the last
  // departure — a conservative estimate for a request the device-side
  // scheduler will end up rejecting.
  std::vector<std::pair<SimTime, int>> ends;
  for (const LedgerEntry& e : entries)
    if (e.est_end > t) ends.emplace_back(e.est_end, e.clbs);
  std::sort(ends.begin(), ends.end());
  for (const auto& [end, c] : ends) {
    free += c;
    if (free >= clbs) return end;
  }
  return ends.empty() ? t : ends.back().first;
}

SimTime FleetManager::est_start_on(int d, SimTime t, int clbs) const {
  return est_start_in(ledger_[static_cast<std::size_t>(d)], t, clbs,
                      cfg_.rows * cfg_.cols - detected_faulty_clbs(d, t));
}

void FleetManager::place(std::size_t qi, int d, SimTime now,
                         bool queue_aware) {
  const Request& req = queue_[qi];
  LedgerEntry e;
  e.req = qi;
  e.clbs = req.footprint_clbs;
  // Queue-aware (online) placement folds estimated on-device queueing into
  // the entry; the offline planner books every request as starting at its
  // arrival, exactly as the PR 1 planner did.
  e.est_start = queue_aware ? est_start_on(d, now, req.footprint_clbs) : now;
  e.est_end = e.est_start + req.duration;
  ledger_[static_cast<std::size_t>(d)].push_back(e);
  assignment_[qi] = d;
}

void FleetManager::refresh_queued_estimates(int d, SimTime now) {
  // A shed entry no longer constrains the device's queue: re-derive the
  // remaining queued entries' starts, each against only the entries placed
  // before it — exactly the computation its original placement ran, minus
  // whatever has been shed since. est_start therefore never grows, and a
  // refresh never increases the device's backlog.
  auto& entries = ledger_[static_cast<std::size_t>(d)];
  std::vector<LedgerEntry> rebuilt;
  rebuilt.reserve(entries.size());
  for (const LedgerEntry& e : entries) {
    if (e.est_start <= now) {
      rebuilt.push_back(e);  // (estimatedly) running: pinned
      continue;
    }
    LedgerEntry q = e;
    q.est_start =
        est_start_in(rebuilt, now, q.clbs,
                     cfg_.rows * cfg_.cols - detected_faulty_clbs(d, now));
    q.est_end = q.est_start + queue_[q.req].duration;
    rebuilt.push_back(q);
  }
  entries = std::move(rebuilt);
}

void FleetManager::rebalance(SimTime now) {
  if (cfg_.rebalance_backlog_ms <= 0.0 || cfg_.devices < 2) return;
  // A few migrations per admission event are enough — the next event
  // continues the work. Unbounded draining here would make a single event
  // O(queue), and under fleet-wide overload (every device past the
  // threshold) there is nothing useful to shed anyway: the dst-side
  // threshold check below keeps saturated fleets from churning requests
  // between equally drowned devices.
  int budget = cfg_.devices;
  bool moved = true;
  while (moved && budget > 0) {
    moved = false;
    // One backlog computation per device per round (re-ranked after every
    // migration, since a move changes both ends).
    std::vector<double> backlog(static_cast<std::size_t>(cfg_.devices));
    std::vector<std::pair<double, int>> over;
    for (int d = 0; d < cfg_.devices; ++d) {
      backlog[static_cast<std::size_t>(d)] = backlog_ms(d, now);
      if (backlog[static_cast<std::size_t>(d)] > cfg_.rebalance_backlog_ms)
        over.emplace_back(-backlog[static_cast<std::size_t>(d)], d);
    }
    // Every device over the threshold may shed, most backlogged first.
    std::sort(over.begin(), over.end());

    for (const auto& [neg_b, src] : over) {
      const double src_b = -neg_b;
      const auto [dst, dst_b] = least_backlogged_peer(now, src,
                                                      /*min_capacity=*/0);
      // Only a peer with headroom receives migrations.
      if (dst >= 0 && dst_b > cfg_.rebalance_backlog_ms) continue;

      // Candidates: queued-but-not-started requests, most recently placed
      // (least sunk estimate) first. A request whose est_start has passed
      // is treated as running and never migrated. The move must strictly
      // reduce the imbalance — the destination, with the request added,
      // stays below the source's old backlog — which is what guarantees
      // the outer loop terminates.
      auto& entries = ledger_[static_cast<std::size_t>(src)];
      for (std::size_t i = entries.size(); i-- > 0 && !moved;) {
        if (entries[i].est_start <= now) continue;
        const double work =
            (entries[i].est_end - entries[i].est_start).milliseconds();
        if (dst < 0 || dst_b + work >= src_b) continue;
        // A fault-degraded destination too small for this request cannot
        // receive it (no-op on a healthy fleet).
        if (entries[i].clbs > capacity_at(dst, now)) continue;
        const std::size_t qi = entries[i].req;
        entries.erase(entries.begin() + static_cast<std::ptrdiff_t>(i));
        place(qi, dst, now, /*queue_aware=*/true);
        refresh_queued_estimates(src, now);
        ++rebalanced_;
        --budget;
        moved = true;
        if (tr_admission_)
          tr_admission_.instant("dispatch",
                                "rebalance " + queue_[qi].app.name, now,
                                {obs::arg("from", src), obs::arg("to", dst)});
        RELOGIC_LOG(kDebug) << "rebalanced request " << qi << " device "
                            << src << " -> " << dst;
      }
      if (moved) break;  // backlogs changed: re-rank before the next move
    }
  }
}

int FleetManager::pick_device(SimTime now, int footprint) {
  // Quarantined devices receive nothing new; if the whole fleet is
  // quarantined the policies fall back to considering everyone (degraded
  // service beats none).
  auto eligible = [&](int d) {
    return quarantined_count_ >= cfg_.devices ||
           !quarantined_[static_cast<std::size_t>(d)];
  };
  // free_at can go below zero on an oversubscribed fleet (the ledger has
  // no capacity feedback), so the argmax seeds with a sentinel no device
  // can fail to beat. Lowest id wins ties.
  auto least_loaded = [&] {
    int best = -1;
    int best_free = std::numeric_limits<int>::min();
    for (int d = 0; d < cfg_.devices; ++d) {
      if (!eligible(d)) continue;
      const int f = free_at(d, now);
      if (f > best_free) {
        best_free = f;
        best = d;
      }
    }
    return best >= 0 ? best : 0;
  };

  switch (cfg_.dispatch) {
    case DispatchPolicy::kRoundRobin: {
      // Skip quarantined slots while preserving the cycle order.
      for (int tries = 0; tries < cfg_.devices; ++tries) {
        const int pick = rr_next_;
        rr_next_ = (rr_next_ + 1) % cfg_.devices;
        if (eligible(pick)) return pick;
      }
      return rr_next_;
    }
    case DispatchPolicy::kLeastLoaded:
      return least_loaded();
    case DispatchPolicy::kBestFit: {
      // Tightest estimated fit; a device already too full to (estimatedly)
      // hold the footprint is skipped, falling back to least-loaded.
      int pick = -1;
      int best_slack = -1;
      for (int d = 0; d < cfg_.devices; ++d) {
        if (!eligible(d)) continue;
        const int slack = free_at(d, now) - footprint;
        if (slack >= 0 && (best_slack < 0 || slack < best_slack)) {
          best_slack = slack;
          pick = d;
        }
      }
      return pick >= 0 ? pick : least_loaded();
    }
  }
  return 0;
}

const std::vector<int>& FleetManager::dispatch() {
  if (dispatched_) return assignment_;
  ensure_health_state();
  const bool online = cfg_.admission == AdmissionMode::kOnline;
  if (online) {
    assignment_.resize(queue_.size(), -1);
  } else {
    // The offline planner re-plans the whole batch from scratch (exactly
    // the PR 1 planner: arrival-sorted, departures reclaim capacity, but
    // no queue estimates, no rebalancing, no incrementality).
    assignment_.assign(queue_.size(), -1);
    for (auto& l : ledger_) l.clear();
    placed_ = 0;
    clock_ = SimTime::zero();
    rr_next_ = 0;
    // Quarantine is an online-admission behaviour (it migrates queued
    // work); the offline planner replans from a clean slate.
    quarantined_.assign(static_cast<std::size_t>(cfg_.devices), false);
    quarantined_count_ = 0;
    quarantine_times_.clear();
  }

  // Event order over the not-yet-placed requests: arrival time, submission
  // order as tie-break. The admission clock never runs backwards — a
  // request submitted late with an early arrival is admitted at the time
  // admission actually happens.
  std::vector<std::size_t> order(queue_.size() - placed_);
  std::iota(order.begin(), order.end(), placed_);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return queue_[a].app.start < queue_[b].app.start;
                   });

  for (std::size_t qi : order) {
    const Request& req = queue_[qi];
    clock_ = std::max(clock_, req.app.start);
    const SimTime now = clock_;
    if (tr_admission_) {
      tr_admission_.instant(
          "admission", req.app.name, now,
          {obs::arg_ms("arrival", req.app.start),
           obs::arg("footprint_clbs", req.footprint_clbs),
           obs::arg_ms("duration", req.duration),
           obs::arg("functions", req.app.functions.size())});
      set_log_context("fleet", now);
    }

    // The clock is monotone and every ledger query filters on est_end >
    // now, so departed entries can be dropped for good — this keeps the
    // per-event scans proportional to the *live* entry count instead of
    // every request ever placed.
    for (auto& l : ledger_)
      std::erase_if(l, [&](const LedgerEntry& e) { return e.est_end <= now; });

    // Geometric admission: a request no device can ever hold is rejected
    // here rather than bouncing through every device queue.
    bool fits = true;
    for (const auto& fn : req.app.functions)
      fits = fits && fn.height <= cfg_.rows && fn.width <= cfg_.cols;
    if (!fits) {
      if (tr_admission_)
        tr_admission_.instant("admission", req.app.name + " rejected", now,
                              {obs::arg("reason", "oversized")});
      continue;  // assignment stays -1; round-robin keeps its slot
    }

    if (online) maybe_quarantine(now);
    int d = pick_device(now, req.footprint_clbs);
    // Fault-degraded capacity guard: a device whose non-faulty CLB count
    // has shrunk below the footprint can never run the request (masking is
    // permanent). Divert to the least-backlogged device that still can;
    // when none exists the request is admission-rejected.
    if (!fault_maps_.empty() &&
        req.footprint_clbs > capacity_at(d, now)) {
      d = least_backlogged_peer(now, /*exclude=*/-1, req.footprint_clbs)
              .first;
      if (d < 0) {
        if (tr_admission_)
          tr_admission_.instant("admission", req.app.name + " rejected", now,
                                {obs::arg("reason", "fault-degraded")});
        continue;  // assignment stays -1
      }
    }
    place(qi, d, now, /*queue_aware=*/online);
    if (tr_admission_) {
      const LedgerEntry& e = ledger_[static_cast<std::size_t>(d)].back();
      tr_admission_.complete(
          "dispatch", req.app.name, now, SimTime::zero(),
          {obs::arg("policy", to_string(cfg_.dispatch)), obs::arg("device", d),
           obs::arg("footprint_clbs", req.footprint_clbs),
           obs::arg_ms("est_start", e.est_start)});
      // Estimated queue wait on the chosen device, as booked at admission
      // (rebalancing may revise it later; this lane records the decision).
      tr_queue_.complete("queue", req.app.name, now, e.est_start - now,
                         {obs::arg("device", d)});
    }
    if (online) rebalance(now);
  }
  placed_ = queue_.size();
  dispatched_ = true;
  // Admission-pass boundary: the ledger, the assignment vector and the
  // request queue must reconcile before any device run consumes them.
  if constexpr (relogic::audit_enabled()) audit_admission();
  return assignment_;
}

void FleetManager::audit_admission() const {
  RELOGIC_AUDIT_CHECK(assignment_.size() == queue_.size(), "FleetManager",
                      "assignment vector diverged from the request queue (" +
                          std::to_string(assignment_.size()) + " vs " +
                          std::to_string(queue_.size()) + ")");
  RELOGIC_AUDIT_CHECK(
      ledger_.size() == static_cast<std::size_t>(cfg_.devices), "FleetManager",
      "per-device ledger count diverged from the fleet size");
  for (int a : assignment_)
    RELOGIC_AUDIT_CHECK(a >= -1 && a < cfg_.devices, "FleetManager",
                        "assignment references nonexistent device " +
                            std::to_string(a));
  // Live entries only: dispatch() drops an entry for good once its est_end
  // has passed the admission clock, so a placed-then-departed request is
  // *expected* to be absent — the ledger mirrors remaining work, not
  // admission history (that is assignment_'s job).
  std::vector<std::uint8_t> on_ledger(queue_.size(), 0);
  for (int d = 0; d < cfg_.devices; ++d) {
    for (const LedgerEntry& e : ledger_[static_cast<std::size_t>(d)]) {
      RELOGIC_AUDIT_CHECK(e.req < queue_.size(), "FleetManager",
                          "ledger entry references request " +
                              std::to_string(e.req) + " beyond the queue");
      RELOGIC_AUDIT_CHECK(
          assignment_[e.req] == d, "FleetManager",
          "request " + std::to_string(e.req) + " booked on device " +
              std::to_string(d) + " but assigned to device " +
              std::to_string(assignment_[e.req]));
      RELOGIC_AUDIT_CHECK(!on_ledger[e.req], "FleetManager",
                          "request " + std::to_string(e.req) +
                              " appears on more than one ledger");
      on_ledger[e.req] = 1;
      RELOGIC_AUDIT_CHECK(e.est_start <= e.est_end, "FleetManager",
                          "request " + std::to_string(e.req) +
                              " booked with est_start after est_end");
      RELOGIC_AUDIT_CHECK(
          e.clbs == queue_[e.req].footprint_clbs, "FleetManager",
          "request " + std::to_string(e.req) +
              " booked with a footprint diverging from its request (" +
              std::to_string(e.clbs) + " vs " +
              std::to_string(queue_[e.req].footprint_clbs) + ")");
    }
  }
}

DeviceReport FleetManager::run_device(
    int device, const std::vector<sched::AppSpec>& apps) const {
  DeviceReport report;
  report.device = device;

  const auto geom = fabric::DeviceGeometry::tiny(cfg_.rows, cfg_.cols);
  // Per-device configuration plane: port backend + write granularity flow
  // into everything that prices configuration traffic — the scheduler's
  // move costing (and through it the sweep pricing of the health rover and
  // the max_move_cost_fraction gate), and the measured replay below.
  const ConfigPlaneSpec plane = cfg_.plane_for(device);
  const std::unique_ptr<config::ConfigPort> port_owner =
      config::make_port(plane.port);
  const config::ConfigPort& port = *port_owner;
  const reloc::RelocationCostModel cost(geom, port, {}, plane.granularity);

  const DeviceTrace tr = device_trace_.empty()
                             ? DeviceTrace{}
                             : device_trace_[static_cast<std::size_t>(device)];

  sched::Scheduler scheduler(cfg_.rows, cfg_.cols, cost, cfg_.sched);
  scheduler.set_trace({tr.sched, tr.tasks, tr.health});
  // Sim-clock metrics sampling: the sampler (and its live registry) lives
  // on this worker's stack and writes into this worker's own report slot —
  // thread-confined like everything else here (DESIGN.md §8.1). Samples
  // land on the device's simulated clock, so the timeline is byte-identical
  // across thread counts.
  obs::TimelineSampler sampler(&report.timeline, cfg_.metrics.interval());
  if (cfg_.metrics.enabled()) {
    sampler.set_meter(tr.meter);
    scheduler.set_metrics(&sampler);
  }
  // Per-device roving self-test: the worker owns a private copy of the
  // device's injected fault map (run_device is const and runs on a pool
  // thread), so detections stay thread-local and deterministic.
  health::FaultMap faults;
  if (cfg_.health.enabled()) {
    if (!fault_maps_.empty())
      faults = fault_maps_[static_cast<std::size_t>(device)];
    else
      faults = health::FaultMap(cfg_.rows, cfg_.cols, geom.cells_per_clb);
    sched::SelfTestConfig st;
    st.enabled = true;
    st.window_cols = cfg_.health.window_cols;
    st.step_period_ms = cfg_.health.step_period_ms;
    st.cells_per_clb = geom.cells_per_clb;
    scheduler.enable_selftest(st, &faults);
  }
  report.stats = scheduler.run_apps(apps, cfg_.overlap);

  // Replay the configuration traffic of every placed task against a real
  // fabric through the transaction batcher, so the report carries measured
  // (not estimated) transaction counts for batched vs unbatched. Workers
  // running this concurrently race to acquire_routing_skeleton: the first
  // of a geometry builds its connectivity once, everyone else shares the
  // immutable skeleton and allocates only the per-device occupancy overlay
  // — device bring-up is O(nodes), not the ~100 ms edge rebuild it was.
  fabric::Fabric fab(geom);
  if (cfg_.health.enabled()) faults.install(fab);
  config::ConfigController controller(fab, port, plane.granularity);
  controller.set_trace(tr.port);
  BatchOptions bopt = cfg_.batch;
  if (!cfg_.batch_config) bopt.max_ops = 1;
  TransactionBatcher batcher(controller, bopt);

  // Each task contributes a per-task op *sequence* — its initial partial
  // configuration at config_start and the teardown clear at finish — so the
  // replayed stream carries the redundancy a real device sees (configure,
  // run, clear, reconfigure the freed slot). That is exactly the stream
  // where kDirtyFrame's cancellation wins at fleet scale: a configure and
  // its clear coalesced into one batch XOR out to nothing, and the skip
  // lands in frame_writes_dirty_skipped.
  struct ReplayEvent {
    SimTime at;
    bool clear;  ///< clears order before configures on time ties: a slot
                 ///< freed at t is re-configured at the same t by its
                 ///< successor
    std::size_t task;
  };
  std::vector<ReplayEvent> events;
  for (std::size_t i = 0; i < report.stats.tasks.size(); ++i) {
    const auto& task = report.stats.tasks[i];
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
    const auto& task = report.stats.tasks[ev.task];
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
          // Distinct truth table per task so successive occupants of the
          // same slot are effective rewrites, not suppressed identical ones.
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
  report.batch = batcher.stats();

  // ---- per-device telemetry ----------------------------------------------
  // Counter semantics (see README "Fleet telemetry schema"):
  //   tasks_admitted  = tasks handed to this device by dispatch, including
  //                     tasks the device itself later rejected;
  //   tasks_completed = tasks that ran to completion;
  //   tasks_rejected  = tasks this device gave up on (queue timeout /
  //                     never-fitting), so admitted == completed + rejected.
  Telemetry& t = report.telemetry;
  const auto& s = report.stats;
  t.counter("tasks_admitted").add(static_cast<std::int64_t>(s.tasks.size()));
  t.counter("tasks_completed")
      .add(static_cast<std::int64_t>(s.tasks.size()) - s.rejected);
  t.counter("tasks_rejected").add(s.rejected);
  t.counter("rearrangement_moves").add(s.rearrangement_moves);
  t.counter("moved_clbs").add(s.moved_clbs);
  t.counter("config_ops").add(report.batch.ops_in);
  // Transactions are coalesced op applications; the unbatched baseline is
  // one transaction per op on the same stream. Column writes (per-column
  // port transactions) are their own metric — feeding them into the
  // transaction counters is how this telemetry used to lie.
  t.counter("config_transactions").add(report.batch.transactions);
  t.counter("config_transactions_unbatched").add(report.batch.ops_in);
  t.counter("column_writes").add(report.batch.column_writes);
  t.counter("column_writes_unbatched")
      .add(report.batch.unbatched_column_writes);
  t.counter("frame_writes").add(report.batch.frames_written);
  t.counter("frame_writes_unbatched").add(report.batch.unbatched_frames);
  t.counter("frame_writes_dirty_skipped").add(report.batch.frames_skipped);
  if (cfg_.health.enabled()) {
    t.counter("swept_clbs").add(s.swept_clbs);
    t.counter("tested_clbs").add(s.tested_clbs);
    t.counter("sweep_rotations").add(s.sweep_rotations);
    t.counter("selftest_moves").add(s.selftest_moves);
    t.counter("faulty_cells").add(s.faults_detected);
    t.counter("faulty_clbs").add(s.faulty_clbs);
    t.gauge("fault_density").set(faults.detected_clb_density());
  }

  for (const auto& task : s.tasks) {
    if (task.rejected) continue;
    t.histogram("queue_wait_ms").observe(task.allocation_delay().milliseconds());
    t.histogram("turnaround_ms").observe((task.finish - task.ready).milliseconds());
  }
  for (const SimTime& mt : s.move_times)
    t.histogram("relocation_ms").observe(mt.milliseconds());

  t.gauge("makespan_ms").set(s.makespan.milliseconds());
  t.gauge("utilization_avg").set(s.utilization_avg);
  t.gauge("fragmentation_avg").set(s.fragmentation_avg);
  t.gauge("fragmentation_max").set(s.fragmentation_max);
  t.gauge("port_utilization")
      .set(s.makespan > SimTime::zero()
               ? s.config_port_busy.milliseconds() / s.makespan.milliseconds()
               : 0.0);
  t.gauge("config_time_saved_ms").set(report.batch.saved().milliseconds());

  if (tr.meter) {
    // One 'C' sample per counter at the device's makespan: the end-of-run
    // totals as counter tracks alongside the spans. std::map iteration
    // keeps the sample order deterministic.
    for (const auto& [name, c] : t.counters())
      tr.meter.counter(name, s.makespan, static_cast<double>(c.value()));
  }
  if constexpr (relogic::audit_enabled()) {
    // Metrics-plane boundary: the timeline's closing row was accumulated
    // live, event by event; the telemetry above was derived from RunStats
    // after the run. For every counter both planes observe, the two must
    // agree exactly. (tasks_completed/tasks_rejected are excluded: the
    // end-of-run identity reclassifies placed-but-never-ran jobs in a way
    // the live counters legitimately see as completed work in flight.)
    if (!report.timeline.empty()) {
      static constexpr const char* kCrossChecked[] = {
          "tasks_admitted", "rearrangement_moves", "moved_clbs",
          "selftest_moves", "swept_clbs",          "tested_clbs",
          "sweep_rotations", "faulty_cells",       "faulty_clbs"};
      const auto& last = report.timeline.samples().back();
      for (const char* name : kCrossChecked) {
        const auto it = last.counters.find(name);
        const std::int64_t live = it == last.counters.end() ? 0 : it->second;
        const std::int64_t total = t.counter_value(name);
        RELOGIC_AUDIT_CHECK(
            live == total, "FleetManager",
            "device " + std::to_string(device) + " timeline counter " +
                name + " diverged from end-of-run telemetry (" +
                std::to_string(live) + " vs " + std::to_string(total) + ")");
      }
    }
  }
  clear_log_context();
  return report;
}

FleetReport FleetManager::run() {
  dispatch();

  std::vector<std::vector<sched::AppSpec>> per_device(
      static_cast<std::size_t>(cfg_.devices));
  int admission_rejects = 0;
  int admitted_tasks = 0;
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    const int d = assignment_[i];
    if (d < 0) {
      admission_rejects += static_cast<int>(queue_[i].app.functions.size());
      continue;
    }
    admitted_tasks += static_cast<int>(queue_[i].app.functions.size());
    per_device[static_cast<std::size_t>(d)].push_back(queue_[i].app);
  }

  FleetReport report;
  report.config = cfg_;
  report.devices.resize(static_cast<std::size_t>(cfg_.devices));

  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  int workers = cfg_.threads > 0 ? cfg_.threads : std::max(1, hw);
  workers = std::min(workers, cfg_.devices);

  // Worker-pool shared state (DESIGN.md §8.1). A device's report is a pure
  // function of (cfg_, its app list): workers write disjoint
  // report.devices slots and read only const member state, so the ONLY
  // cross-thread mutable state is the work counter handing out device ids
  // and the guarded error list. Dynamic assignment via fetch_add replaces
  // the old static stride — faster when device workloads are skewed, and
  // identical output either way since results never depend on which worker
  // ran a device.
  struct RunState {
    std::atomic<int> next_device{0};
    Mutex mu;
    /// (device, exception) pairs — device-ordered at rethrow time so the
    /// surfaced error does not depend on thread interleaving.
    std::vector<std::pair<int, std::exception_ptr>> errors
        RELOGIC_GUARDED_BY(mu);
  };
  RunState state;
  auto work = [&]() {
    for (;;) {
      const int d = state.next_device.fetch_add(1, std::memory_order_relaxed);
      if (d >= cfg_.devices) return;
      try {
        report.devices[static_cast<std::size_t>(d)] =
            run_device(d, per_device[static_cast<std::size_t>(d)]);
      } catch (...) {
        MutexLock lock(state.mu);
        state.errors.emplace_back(d, std::current_exception());
      }
    }
  };
  if (workers <= 1) {
    work();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w) pool.emplace_back(work);
    for (auto& th : pool) th.join();
  }
  {
    // Pool has joined: single-threaded again, but the lock keeps the
    // thread-safety analysis honest (and costs one uncontended acquire).
    MutexLock lock(state.mu);
    std::sort(state.errors.begin(), state.errors.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    if (!state.errors.empty())
      std::rethrow_exception(state.errors.front().second);
  }

  report.admitted = admitted_tasks;
  report.rejected = admission_rejects;
  report.rebalanced = rebalanced_;
  report.quarantined = quarantined_count_;
  for (const DeviceReport& d : report.devices) {
    report.completed +=
        static_cast<int>(d.stats.tasks.size()) - d.stats.rejected;
    report.rejected += d.stats.rejected;
    report.faulty_cells += d.stats.faults_detected;
    report.tested_clbs += d.stats.tested_clbs;
    report.makespan = std::max(report.makespan, d.stats.makespan);
    report.aggregate.merge(d.telemetry);
  }
  // Aggregation boundary: before the fleet-only counters land, every
  // aggregate counter must equal the sum of its per-device contributions —
  // the merge must neither drop nor double-count a device.
  if constexpr (relogic::audit_enabled()) {
    // Workers acquired routing skeletons concurrently during the run; a
    // racily half-built or geometry-aliased cache entry must not survive
    // the join unnoticed.
    fabric::audit_routing_skeleton_cache();
    for (const DeviceReport& d : report.devices)
      d.telemetry.audit("device " + std::to_string(d.device));
    report.aggregate.audit("fleet aggregate");
    for (const auto& [name, c] : report.aggregate.counters()) {
      std::int64_t sum = 0;
      for (const DeviceReport& d : report.devices)
        sum += d.telemetry.counter_value(name);
      RELOGIC_AUDIT_CHECK(sum == c.value(), "FleetManager",
                          "aggregate counter " + name +
                              " diverged from the per-device sum (" +
                              std::to_string(c.value()) + " vs " +
                              std::to_string(sum) + ")");
    }
  }
  report.aggregate.counter("admission_rejected").add(admission_rejects);
  report.aggregate.counter("rebalanced_requests").add(rebalanced_);
  if (cfg_.health.enabled())
    report.aggregate.counter("quarantined_devices").add(quarantined_count_);

  if (cfg_.metrics.enabled()) {
    // Fold the per-device timelines into the fleet aggregate, in device-id
    // order (DESIGN.md §7.5): union of sample times, carry-forward between
    // a device's samples, rows tagged with the quarantined-device count as
    // of each instant.
    std::vector<const obs::MetricsTimeline*> parts;
    parts.reserve(report.devices.size());
    for (const DeviceReport& d : report.devices) parts.push_back(&d.timeline);
    report.timeline = obs::MetricsTimeline::fold(parts, quarantine_times_);
    if constexpr (relogic::audit_enabled()) {
      for (const DeviceReport& d : report.devices)
        d.timeline.audit("device " + std::to_string(d.device) + " timeline");
      report.timeline.audit("fleet timeline");
    }
    if (tr_meter_ && !report.timeline.empty()) {
      // Fleet-aggregate counter curves on the fleet meter lane (the final
      // totals below still land at the makespan, on top of these).
      for (const auto& row : report.timeline.samples())
        for (const auto& [name, v] : row.counters)
          tr_meter_.counter(name, row.t, static_cast<double>(v));
    }
  }

  if (tr_meter_) {
    for (const auto& [name, c] : report.aggregate.counters())
      tr_meter_.counter(name, report.makespan,
                        static_cast<double>(c.value()));
    clear_log_context();
  }

  queue_.clear();
  assignment_.clear();
  for (auto& l : ledger_) l.clear();
  placed_ = 0;
  clock_ = SimTime::zero();
  rebalanced_ = 0;
  dispatched_ = false;
  rr_next_ = 0;
  quarantined_.assign(static_cast<std::size_t>(cfg_.devices), false);
  quarantined_count_ = 0;
  quarantine_times_.clear();
  return report;
}

double FleetReport::throughput_tasks_per_s() const {
  const double secs = makespan.seconds();
  return secs > 0 ? completed / secs : 0.0;
}

std::string FleetReport::metrics_json() const {
  if (timeline.empty() && !config.metrics.enabled()) return "";
  std::vector<std::pair<int, const obs::MetricsTimeline*>> parts;
  parts.reserve(devices.size());
  for (const DeviceReport& d : devices) parts.emplace_back(d.device, &d.timeline);
  return obs::metrics_json_document(timeline, parts,
                                    config.metrics.sample_interval_ms);
}

std::string FleetReport::to_json() const {
  std::ostringstream os;
  int txn = 0, txn_unbatched = 0, columns = 0, columns_unbatched = 0;
  int frames = 0, frames_unbatched = 0, frames_skipped = 0;
  SimTime port_time = SimTime::zero(), port_time_unbatched = SimTime::zero();
  for (const DeviceReport& d : devices) {
    txn += d.batch.transactions;
    txn_unbatched += d.batch.ops_in;
    columns += d.batch.column_writes;
    columns_unbatched += d.batch.unbatched_column_writes;
    frames += d.batch.frames_written;
    frames_unbatched += d.batch.unbatched_frames;
    frames_skipped += d.batch.frames_skipped;
    port_time += d.batch.time;
    port_time_unbatched += d.batch.unbatched_time;
  }
  const ConfigPlaneSpec default_plane = config.default_plane();
  os << "{\n";
  os << "  \"fleet\": {\"devices\": " << config.devices
     << ", \"rows\": " << config.rows << ", \"cols\": " << config.cols
     << ", \"dispatch\": \"" << to_string(config.dispatch)
     << "\", \"admission\": \"" << to_string(config.admission)
     << "\", \"rebalance_backlog_ms\": "
     << json_number(config.rebalance_backlog_ms)
     << ", \"policy\": \"" << sched::to_string(config.sched.policy)
     << "\", \"overlap\": " << config.overlap << ", \"port\": \""
     << config::to_string(default_plane.port) << "\", \"granularity\": \""
     << config::to_string(default_plane.granularity)
     << "\", \"batching\": " << (config.batch_config ? "true" : "false")
     << ", \"batch_max_ops\": " << config.batch.max_ops
     << ", \"selftest\": " << (config.health.selftest ? "true" : "false")
     << ", \"fault_rate\": " << json_number(config.health.fault_rate)
     << ", \"quarantine_threshold\": "
     << json_number(config.health.quarantine_threshold) << "},\n";
  os << "  \"totals\": {\"admitted\": " << admitted
     << ", \"completed\": " << completed << ", \"rejected\": " << rejected
     << ", \"rebalanced\": " << rebalanced
     << ", \"quarantined_devices\": " << quarantined
     << ", \"faulty_cells\": " << faulty_cells
     << ", \"tested_clbs\": " << tested_clbs
     << ", \"makespan_ms\": " << json_number(makespan.milliseconds())
     << ", \"throughput_tasks_per_s\": " << json_number(throughput_tasks_per_s())
     << ", \"config_transactions\": " << txn
     << ", \"config_transactions_unbatched\": " << txn_unbatched
     << ", \"column_writes\": " << columns
     << ", \"column_writes_unbatched\": " << columns_unbatched
     << ", \"frame_writes\": " << frames
     << ", \"frame_writes_unbatched\": " << frames_unbatched
     << ", \"frame_writes_dirty_skipped\": " << frames_skipped
     << ", \"config_port_time_ms\": " << json_number(port_time.milliseconds())
     << ", \"config_port_time_unbatched_ms\": "
     << json_number(port_time_unbatched.milliseconds()) << "},\n";
  os << "  \"aggregate\": " << aggregate.to_json(2) << ",\n";
  os << "  \"devices\": [";
  for (std::size_t i = 0; i < devices.size(); ++i) {
    const ConfigPlaneSpec plane = config.plane_for(devices[i].device);
    os << (i ? ",\n" : "\n") << "    {\"device\": " << devices[i].device
       << ", \"port\": \"" << config::to_string(plane.port)
       << "\", \"granularity\": \"" << config::to_string(plane.granularity)
       << "\", \"telemetry\": " << devices[i].telemetry.to_json(4) << "}";
  }
  os << (devices.empty() ? "" : "\n  ") << "]\n";
  os << "}\n";
  return os.str();
}

}  // namespace relogic::runtime
