#!/usr/bin/env python3
"""Moonwalk end-to-end benchmark.

Run from the root of a moonwalk checkout:

    python3 e2ebench/run.py --workload sweep_cold|montecarlo|serve_mix|all \
        --seed N --seconds S --trace 0|1

Builds moonwalk and the benchmark program under $CARGO_TARGET_DIR (default
.bench_build), runs the workload, and prints one JSON result line last on
stdout: {"correct", "attempted", "failed", "metrics"}.  --trace 0 reports
the end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones
(and writes the benchmark's spans under <build>/traces/).  --workload all
runs every workload untraced and prints each one's metrics.
--selftest builds and runs the benchmark's own unit tests.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("sweep_cold", "montecarlo", "serve_mix")
HERE = os.path.dirname(os.path.abspath(__file__))
# A workload that has not finished by then is stopped and reported as
# failed; the first run in a checkout also builds, before this clock.
RUN_TIMEOUT_S = 170


def die(message, code=1):
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(code)


def run_logged(cmd, log):
    with open(log, "a") as out:
        out.write("$ " + " ".join(cmd) + "\n")
        out.flush()
        result = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT)
    if result.returncode != 0:
        with open(log) as f:
            tail = f.readlines()[-40:]
        sys.stderr.write("".join(tail))
        die(f"build step failed: {' '.join(cmd)}")


def build(build_dir):
    """Configure (once) and build moonwalk's CLI and libraries, then the
    benchmark program.  A no-op build takes about a second."""
    jobs = str(os.cpu_count() or 1)
    repo = os.path.join(build_dir, "moonwalk")
    bench = os.path.join(build_dir, "e2ebench")
    log = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    if not os.path.exists(os.path.join(repo, "CMakeCache.txt")):
        run_logged(["cmake", "-S", ".", "-B", repo,
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], log)
    run_logged(["cmake", "--build", repo, "--target", "moonwalk_cli",
                "-j", jobs], log)
    if not os.path.exists(os.path.join(bench, "CMakeCache.txt")):
        run_logged(["cmake", "-S", HERE, "-B", bench,
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                    "-DMOONWALK_BUILD_DIR=" + os.path.abspath(repo)], log)
    run_logged(["cmake", "--build", bench, "-j", jobs], log)
    return (os.path.join(repo, "tools", "moonwalk"),
            os.path.join(bench, "e2ebench"),
            os.path.join(bench, "e2ebench_selftest"))


def expected_metrics(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_workload(binaries, build_dir, workload, seed, seconds, trace):
    """Run one workload; returns its parsed result line."""
    cli, bench, _ = binaries
    work = os.path.join(build_dir, "work", f"{workload}-{seed}-{os.getpid()}")
    traces = os.path.join(build_dir, "traces")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    os.makedirs(traces, exist_ok=True)
    cmd = [bench, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--moonwalk", os.path.abspath(cli), "--work-dir", work,
           "--trace-out",
           os.path.join(traces, f"{workload}-seed{seed}.json")]
    # Own process group, so a timeout also stops the daemons it started.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        die(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        die(f"{workload} failed (exit {proc.returncode})")
    lines = out.strip().splitlines()
    if not lines:
        die(f"{workload} printed no result")
    result = json.loads(lines[-1])
    names = list(result["metrics"])
    if names != expected_metrics(trace):
        die(f"{workload} reported {names}, not the metrics of "
            "BENCHMARK.json")
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")
            and os.path.isfile("BENCHMARK.json")):
        die("run from the root of a moonwalk checkout", 2)
    if not args.selftest and not args.workload:
        die("give --workload or --selftest", 2)
    if args.seconds is None:
        with open("BENCHMARK.json") as f:
            args.seconds = json.load(f)["run_seconds"]

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binaries = build(build_dir)
    if args.selftest:
        sys.exit(subprocess.run([binaries[2]]).returncode)

    if args.workload != "all":
        result = run_workload(binaries, build_dir, args.workload,
                              args.seed, args.seconds, args.trace)
        print(json.dumps(result), flush=True)
        return

    results = {}
    for workload in WORKLOADS:
        started = time.time()
        r = run_workload(binaries, build_dir, workload, args.seed,
                         args.seconds, 0)
        results[workload] = r
        print(f"== {workload}: correct={r['correct']} "
              f"attempted={r['attempted']} failed={r['failed']} "
              f"({time.time() - started:.0f} s)")
        for name, m in r["metrics"].items():
            print(f"   {name:<14} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(results), flush=True)


if __name__ == "__main__":
    main()
