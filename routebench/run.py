#!/usr/bin/env python3
"""Builds routebench from this checkout's sources and runs one workload.

Usage (from the repository root):
  python3 routebench/run.py --workload exchange|debug_loop|serve_mix \
      --seed N --seconds S --trace 0|1

The first run configures and builds a Release tree in .bench_build/routebench
(the library from src/ plus the routebench binary); later runs rebuild
incrementally. The binary's stdout is passed through; its last line is the
result JSON. A run of the binary that crashes or hangs is counted as one failed op
and the workload is run once more; the crash is recorded on stderr and in
.bench_build/routebench-failures.log. Exits non-zero, printing no result,
when the build fails (for example outside a spider checkout) or no attempt
completes.

Before debug_loop, the same op stream runs for half the run time in a probe
process whose engines use exec num_threads = 0 (the measured session uses
one thread, because at num_threads = 0 the TaskGroup lifetime race crashes
most runs). The probe's outcome -- finished, crashed or hung, and how many
ops it completed -- is printed as a "probe" line and crashes are logged.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "routebench")
BINARY = os.path.join(BUILD_DIR, "routebench")
BUILD_LOG = os.path.join(BUILD_ROOT, "routebench-build.log")
FAILURE_LOG = os.path.join(BUILD_ROOT, "routebench-failures.log")

# Whole-command budget once built; a run's own work takes well under this.
RUN_BUDGET_S = 170


def log_tail(path, lines=30):
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            return "".join(f.readlines()[-lines:])
    except OSError:
        return ""


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("run.py: no spider sources at %s/src\n" % ROOT)
        return False
    os.makedirs(BUILD_ROOT, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "-j", jobs],
    ]
    with open(BUILD_LOG, "w", encoding="utf-8") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                sys.stderr.write("run.py: build step failed: %s\n%s"
                                 % (" ".join(step), log_tail(BUILD_LOG)))
                return False
    return True


def record_failure(what):
    sys.stderr.write("run.py: %s\n" % what)
    with open(FAILURE_LOG, "a", encoding="utf-8") as log:
        log.write("%s %s\n" % (time.strftime("%Y-%m-%dT%H:%M:%S"), what))


def run_nproc_probe(args):
    seconds = min(5.0, args.seconds / 2)
    timeout = seconds + 30
    command = [BINARY, "--workload", "debug_loop", "--seed", str(args.seed),
               "--seconds", repr(seconds), "--trace", "0",
               "--nproc-probe", "1"]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=timeout, check=False)
        out, code = proc.stdout, proc.returncode
    except subprocess.TimeoutExpired as e:
        out = e.stdout.decode() if isinstance(e.stdout, bytes) else (
            e.stdout or "")
        code = None
    ops = 0
    for line in out.splitlines():
        fields = line.split()
        if len(fields) >= 2 and fields[0] in ("probe_ops", "probe_done"):
            ops = int(fields[1])
    if code == 0 and "probe_done" in out:
        outcome = "finished"
    elif code is None:
        outcome = "HUNG (killed after %.0f s)" % timeout
    elif code < 0:
        outcome = "CRASHED (%s)" % signal.Signals(-code).name
    else:
        outcome = "FAILED (exit %d)" % code
    line = ("probe debug_loop at engine num_threads=0: %s after %d ops "
            "in a %.1f s budget" % (outcome, ops, seconds))
    print(line)
    if outcome != "finished":
        record_failure("seed=%d %s" % (args.seed, line))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["exchange", "debug_loop", "serve_mix"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    if not build():
        return 1
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        command += ["--spans-out", os.path.join(
            BUILD_ROOT, "routebench-spans-%s.jsonl" % args.workload)]

    start = time.monotonic()
    if args.workload == "debug_loop":
        run_nproc_probe(args)

    crashed = 0
    for attempt in range(2):
        remaining = RUN_BUDGET_S - (time.monotonic() - start)
        if remaining < 5:
            break
        try:
            proc = subprocess.run(command, stdout=subprocess.PIPE,
                                  timeout=remaining, check=False, text=True)
        except subprocess.TimeoutExpired:
            crashed += 1
            record_failure("%s seed=%d attempt %d hung past %.0f s"
                           % (args.workload, args.seed, attempt, remaining))
            continue
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            crashed += 1
            sys.stdout.write(proc.stdout)
            record_failure("%s seed=%d attempt %d exited with %d"
                           % (args.workload, args.seed, attempt,
                              proc.returncode))
            continue
        result = json.loads(lines[-1])
        # A crashed attempt is one failed op; the outputs of the attempt that
        # completed were still checked, so its verdict stands.
        result["attempted"] += crashed
        result["failed"] += crashed
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        print(json.dumps(result))
        return 0
    return 1


if __name__ == "__main__":
    sys.exit(main())
