// relogic_e2e — one benchmark run of one workload.
//
//   relogic_e2e --workload {fleet_packed|fleet_selftest|live_migration}
//               --seed N --seconds S --trace {0|1} [--spans FILE]
//
// Prints an environment record, then as its last line the result object
// {correct, attempted, failed, metrics}: the end-to-end metrics untraced,
// the per-layer metrics traced. Exits 0 only when every correctness gate
// passed. Normally started by e2ebench/run.py, which builds it first.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "harness.hpp"
#include "relogic/common/audit.hpp"
#include "relogic/config/kernel.hpp"

#ifndef RELOGIC_E2E_BUILD_TYPE
#define RELOGIC_E2E_BUILD_TYPE "unknown"
#endif

namespace {

constexpr int kFleetDevices = 4;

int usage(const char* why) {
  std::fprintf(stderr,
               "relogic_e2e: %s\nusage: relogic_e2e --workload W --seed N "
               "--seconds S --trace 0|1 [--spans FILE]\n",
               why);
  return 2;
}

/// Why this process must not be timed, or "" when it may.
std::string environment_problem() {
  if (std::string(RELOGIC_E2E_BUILD_TYPE) != "Release")
    return std::string("build type is ") + RELOGIC_E2E_BUILD_TYPE +
           ", not Release";
#ifndef NDEBUG
  return "assertions are compiled in (NDEBUG unset)";
#endif
  if (relogic::audit_enabled())
    return "the library was built with RELOGIC_AUDIT periodic audits";
  const char* audit = std::getenv("RELOGIC_AUDIT");
  if (audit && *audit && std::string(audit) != "0" &&
      std::string(audit) != "OFF")
    return "RELOGIC_AUDIT is set in the environment";
  return "";
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Options opt;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        opt.workload = value;
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value);
        have_seed = true;
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value);
        have_seconds = opt.seconds > 0;
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        opt.trace = value == "1";
        have_trace = true;
      } else if (arg == "--spans") {
        opt.spans_path = value;
      } else {
        return usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + arg).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace)
    return usage("--seed, --seconds (> 0) and --trace are required");

  void (*workload)(const e2e::Options&, e2e::SpanLog&, e2e::Result&) = nullptr;
  if (opt.workload == "fleet_packed") workload = e2e::run_fleet_packed;
  if (opt.workload == "fleet_selftest") workload = e2e::run_fleet_selftest;
  if (opt.workload == "live_migration") workload = e2e::run_live_migration;
  if (!workload) return usage(("unknown workload '" + opt.workload + "'").c_str());

  if (const std::string problem = environment_problem(); !problem.empty()) {
    std::fprintf(stderr, "relogic_e2e: refusing to time this run: %s\n",
                 problem.c_str());
    return 3;
  }

  // The fleet pool never gets more threads than CPUs online.
  const int nproc =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  opt.threads = std::min(kFleetDevices, nproc);
  const relogic::config::KernelBackend& kernel =
      relogic::config::default_kernel_backend();
  char env[512];
  std::snprintf(env, sizeof env,
                "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
                "\"trace\": %d, \"kernel_backend\": \"%s\", "
                "\"kernel_variant\": \"%s\", \"nproc\": %d, "
                "\"pool_threads\": %d, \"build_type\": \"%s\"}",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? 1 : 0, kernel.name().c_str(),
                kernel.variant().c_str(), nproc, opt.threads,
                RELOGIC_E2E_BUILD_TYPE);
  std::printf("{\"env\": %s}\n", env);
  std::fflush(stdout);

  e2e::SpanLog log(opt.trace);
  e2e::Result result;
  try {
    workload(opt, log, result);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "relogic_e2e: %s failed: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }
  result.set("peak_rss_mb", e2e::peak_rss_mb());
  result.set("success_pct",
             result.attempted() > 0
                 ? 100.0 * static_cast<double>(result.attempted() -
                                               result.failed()) /
                       static_cast<double>(result.attempted())
                 : 0.0);
  if (opt.trace && !opt.spans_path.empty() &&
      !log.write_json(opt.spans_path, env))
    result.fail("cannot write spans to " + opt.spans_path);

  const std::string line = result.to_json(opt.trace);
  for (const std::string& e : result.errors())
    std::fprintf(stderr, "relogic_e2e: FAILED: %s\n", e.c_str());
  std::printf("%s\n", line.c_str());
  return result.correct() ? 0 : 1;
}
