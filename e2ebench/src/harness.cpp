#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>

namespace e2e {

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t i) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (i + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"setup_s", "s"},
      {"run_s", "s"},
      {"peak_rss_mb", "MB"},
      {"success_pct", "%"},
      {"sim_wait_ms_p50", "ms"},
      {"sim_wait_ms_p99", "ms"},
      {"sim_ops_per_s", "1/s"},
      {"sim_port_ms_per_cell", "ms"},
  };
  return kMetrics;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"runtime.admit_ms", "ms"},
      {"runtime.admit_us_p50", "us"},
      {"runtime.admit_us_p99", "us"},
      {"runtime.rebalanced", "count"},
      {"runtime.quarantined", "count"},
      {"runtime.report_ms", "ms"},
      {"sched.run_ms_sum", "ms"},
      {"sched.run_ms_max", "ms"},
      {"sched.skew", "ratio"},
      {"sched.us_per_task", "us"},
      {"sched.moves", "count"},
      {"sched.moved_clbs", "count"},
      {"sched.rejected", "count"},
      {"sched.selftest_moves", "count"},
      {"sched.faulty_clbs", "count"},
      {"fabric.bringup_ms", "ms"},
      {"fabric.cold_bringup_ms", "ms"},
      {"config.replay_ms", "ms"},
      {"config.ops", "count"},
      {"config.transactions", "count"},
      {"config.frames_written", "count"},
      {"config.frames_skipped", "count"},
      {"place.implement_ms", "ms"},
      {"reloc.relocate_ms", "ms"},
      {"reloc.cell_ms_p50", "ms"},
      {"reloc.cells", "count"},
      {"reloc.ops", "count"},
      {"reloc.frames_written", "count"},
      {"sim.events", "count"},
      {"sim.ns_per_event", "ns"},
      {"sim.step_us_before", "us"},
      {"sim.step_us_after", "us"},
      {"bench.trace_overhead_pct", "%"},
      {"bench.unattributed_ms", "ms"},
  };
  return kMetrics;
}

void Result::fail(const std::string& why, std::int64_t n) {
  failed_ += n;
  errors_.push_back(why);
}

std::string Result::to_json(bool traced) {
  const auto& specs = traced ? per_layer_metrics() : end_to_end_metrics();
  std::ostringstream metrics;
  bool first = true;
  for (const MetricSpec& m : specs) {
    const auto it = values_.find(m.name);
    if (it == values_.end() || !std::isfinite(it->second)) {
      fail(std::string("metric not produced: ") + m.name);
      continue;
    }
    char value[64];
    std::snprintf(value, sizeof value, "%.12g", it->second);
    metrics << (first ? "" : ", ") << '"' << m.name << "\": {\"value\": "
            << value << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  std::ostringstream out;
  out << "{\"correct\": " << (correct() ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {" << metrics.str() << "}}";
  return out.str();
}

std::int64_t SpanLog::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

int SpanLog::open(const char* name, std::int64_t request) {
  Span s;
  s.name = name;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.request = request;
  s.start_ns = now_ns();
  spans_.push_back(s);
  const int id = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(id);
  return id;
}

void SpanLog::close(int id) {
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  // Scopes nest, so the span closing is the innermost open one.
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

double SpanLog::self_ms(int id) const {
  const Span& parent = span(id);
  double covered = 0.0;
  // Children are recorded after their parent, inside its interval.
  for (std::size_t i = static_cast<std::size_t>(id) + 1; i < spans_.size();
       ++i) {
    const Span& s = spans_[i];
    if (s.start_ns > parent.end_ns) break;
    if (s.parent == id) covered += ms(s);
  }
  return ms(parent) - covered;
}

bool SpanLog::write_json(const std::string& path,
                         const std::string& env_json) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"env\": " << env_json << ",\n\"spans\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\": " << i << ", \"name\": \"" << s.name
        << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << ", \"parent\": " << s.parent << ", \"request\": " << s.request
        << (i + 1 < spans_.size() ? "},\n" : "}\n");
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0
                   : std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<double>(v.size());
}

double mean_of_medians(const std::vector<std::vector<double>>& per_input) {
  double sum = 0.0;
  int n = 0;
  for (const auto& reps : per_input) {
    if (reps.empty()) continue;
    sum += median(reps);
    ++n;
  }
  return n ? sum / n : 0.0;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace e2e
