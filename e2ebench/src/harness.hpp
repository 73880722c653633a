// Shared machinery of the end-to-end benchmark: options, the metric
// catalogue, the result record, in-memory spans, statistics and the
// measured-phase driver. Everything here lives outside the library: layers
// are timed from the benchmark's own calls into their public functions.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where a traced run writes its spans (empty: not written).
  std::string spans_path;
  /// Worker threads of the fleet pool (never more than the CPUs online).
  int threads = 1;
};

/// The i-th input seed of a run: splitmix64 over (seed, i), so one run seed
/// fans out into independent, reproducible per-input seeds.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t i);

// ---- metrics ----------------------------------------------------------------

struct MetricSpec {
  const char* name;
  const char* unit;
};
/// Printed by an untraced run (every workload).
const std::vector<MetricSpec>& end_to_end_metrics();
/// Printed by a traced run (every workload; 0 where a layer does no work).
const std::vector<MetricSpec>& per_layer_metrics();

/// Outcome of one benchmark run. Every failed operation or correctness gate
/// increments `failed` and records why.
class Result {
 public:
  void attempt(std::int64_t n) { attempted_ += n; }
  void fail(const std::string& why, std::int64_t n = 1);
  void set(const std::string& name, double value) { values_[name] = value; }
  bool correct() const { return failed_ == 0 && errors_.empty(); }
  std::int64_t attempted() const { return attempted_; }
  std::int64_t failed() const { return failed_; }
  const std::vector<std::string>& errors() const { return errors_; }
  /// The result line: exactly {correct, attempted, failed, metrics}, with
  /// the metric set the run mode selects. A metric of that set the workload
  /// did not produce is itself a failure.
  std::string to_json(bool traced);

 private:
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::vector<std::string> errors_;
  std::map<std::string, double> values_;
};

// ---- spans ------------------------------------------------------------------

struct Span {
  const char* name;  ///< "<layer>.<call>"; string literals only
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;              ///< index of the enclosing span, -1 at top
  std::int64_t request = -1;    ///< shared by the spans of one request
};

/// In-memory span recorder for the calls the benchmark makes into each
/// layer. Scopes record only while recording is on (one branch otherwise),
/// so untraced and traced runs execute the same calls. Single-threaded:
/// only the benchmark's own thread records.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}
  /// Switches recording on or off between measured repetitions.
  void set_recording(bool on) { recording_ = on && enabled_; }
  bool recording() const { return recording_; }

  int open(const char* name, std::int64_t request);
  void close(int id);
  const Span& span(int id) const { return spans_[static_cast<std::size_t>(id)]; }
  const std::vector<Span>& spans() const { return spans_; }
  static double ms(const Span& s) { return (s.end_ns - s.start_ns) / 1e6; }
  /// Duration of span `id` not covered by its direct children.
  double self_ms(int id) const;
  /// Writes every span plus the run's environment record as JSON.
  bool write_json(const std::string& path, const std::string& env_json) const;

 private:
  std::int64_t now_ns() const;

  bool enabled_;
  bool recording_ = false;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span: opens on construction, closes on destruction.
class Scope {
 public:
  Scope(SpanLog& log, const char* name, std::int64_t request = -1)
      : log_(log), id_(log.recording() ? log.open(name, request) : -1) {}
  ~Scope() {
    if (id_ >= 0) log_.close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int id() const { return id_; }

 private:
  SpanLog& log_;
  int id_;
};

// ---- statistics -------------------------------------------------------------

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample; 0 for
/// an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }
/// Arithmetic mean; 0 for an empty sample.
double mean(const std::vector<double>& v);
/// Per-input medians, averaged over inputs: every input weighs the same no
/// matter how many repetitions of it fit in the run.
double mean_of_medians(const std::vector<std::vector<double>>& per_input);
/// Peak resident set of this process so far, in MiB.
double peak_rss_mb();

// ---- measured phase ---------------------------------------------------------

/// Runs the measured phase as cycles over `inputs` inputs — every cycle
/// executes each input once, so inputs are measured equally often — until
/// `seconds` have elapsed and at least `min_cycles` cycles ran. A cycle the
/// mean cycle time says would end past the deadline is not started.
/// `body(input, cycle)` executes one repetition. Returns the cycle count.
template <class Body>
int run_cycles(int inputs, double seconds, int min_cycles, Body&& body) {
  const auto t0 = Clock::now();
  int cycles = 0;
  for (;;) {
    const double elapsed = seconds_since(t0);
    if (cycles >= min_cycles &&
        elapsed + elapsed / cycles > seconds)
      break;
    for (int k = 0; k < inputs; ++k) body(k, cycles);
    ++cycles;
  }
  return cycles;
}

// ---- workloads --------------------------------------------------------------

/// Workload entry points; each fills `result` and `log`.
void run_fleet_packed(const Options& opt, SpanLog& log, Result& result);
void run_fleet_selftest(const Options& opt, SpanLog& log, Result& result);
void run_live_migration(const Options& opt, SpanLog& log, Result& result);

}  // namespace e2e
