#!/usr/bin/env python3
"""End-to-end benchmark of relogic: build, run one workload, report.

Usage, from the root of a source tree:

    python3 e2ebench/run.py --workload fleet_packed --seed 1 --seconds 30 --trace 0

Builds the library and the benchmark driver (Release, audits off) into
$CARGO_TARGET_DIR/e2ebench (default .bench_build/e2ebench), runs the
workload, and passes the driver's output through: an environment record,
then as the last line the result object {correct, attempted, failed,
metrics}. A traced run (--trace 1) prints the per-layer metrics and writes
its spans to <build dir>/spans/. Exits non-zero when the build fails, the
environment must not be timed, or any correctness gate fails.
See e2ebench/README.md.
"""
import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SOURCE = os.path.dirname(HERE)
WORKLOADS = ("fleet_packed", "fleet_selftest", "live_migration")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(msg):
    print("e2ebench: " + msg, file=sys.stderr, flush=True)


def run(cmd, timeout, env=None, stdout=None):
    """Runs cmd in its own process group; kills the whole group on timeout."""
    proc = subprocess.Popen(cmd, env=env, stdout=stdout,
                            stderr=sys.stderr, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode, out


def audit_requested():
    value = os.environ.get("RELOGIC_AUDIT", "")
    return value not in ("", "0", "OFF", "off")


def build(build_dir):
    """Configures (once) and builds the driver; returns its path or None."""
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    # Keep every build output inside the build directory.
    env = dict(os.environ, CCACHE_DISABLE="1", TMPDIR=tmp,
               CCACHE_DIR=os.path.join(build_dir, "ccache"))
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        code, _ = run(["cmake", "-S", HERE, "-B", build_dir,
                       "-DCMAKE_BUILD_TYPE=Release"],
                      BUILD_TIMEOUT_S, env=env, stdout=sys.stderr)
        if code != 0:
            return None
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    code, _ = run(["cmake", "--build", build_dir, "--target", "relogic_e2e",
                   "-j", jobs], max(1, deadline - time.monotonic()),
                  env=env, stdout=sys.stderr)
    binary = os.path.join(build_dir, "relogic_e2e")
    return binary if code == 0 and os.path.isfile(binary) else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not (os.path.isfile(os.path.join(SOURCE, "CMakeLists.txt")) and
            os.path.isdir(os.path.join(SOURCE, "src"))):
        log("no relogic source tree around %s; nothing to build" % HERE)
        return 2
    if audit_requested():
        log("refusing to time a run with RELOGIC_AUDIT set")
        return 3

    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                 ".bench_build")
    build_dir = os.path.join(build_root, "e2ebench")
    try:
        binary = build(build_dir)
    except subprocess.TimeoutExpired:
        log("build timed out")
        return 2
    if binary is None:
        log("build failed")
        return 2

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(build_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        code, out = run(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE)
    except subprocess.TimeoutExpired:
        log("workload %s timed out" % args.workload)
        return 1
    lines = out.decode().splitlines()
    for line in lines:
        print(line)
    sys.stdout.flush()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("driver printed no result (exit %d)" % code)
        return code or 1
    if set(result) != RESULT_KEYS:
        log("malformed result line")
        return 1
    if code == 0 and result["correct"] is not True:
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
