#!/usr/bin/env python3
"""Benchmark of record for trkx: epoch time, quality and serving goodput.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train_ctd --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all          # every workload, untraced
    python3 perfbench/selftest.py                    # smoke-scale self-test

Builds the repository's libraries and perfbench/runner.cpp into
.bench_build (CMake, repository defaults), runs one workload in one process
with the workload's thread plan, checks the workload fingerprint and the
runner's output checks, and prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end-to-end metric (--trace 0) or every per-layer metric
(--trace 1). Spans of a traced run are written to .bench_out/.

Exit codes: 0 result printed; 2 refused or build/run failure; 3 the
generated inputs do not match the pinned fingerprint.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(ROOT, ".bench_out")
RUNNER = os.path.join(BUILD_DIR, "perfbench_runner")
FINGERPRINTS = os.path.join(HERE, "fingerprints.json")
DEFAULT_SEED = 1
RUN_TIMEOUT_S = 170

# Threads each workload may keep runnable; the total stays <= 4 (nproc of
# the reference host). OMP_NUM_THREADS is the only knob the plan sets.
WORKLOADS = {
    "train_ctd": {
        "omp_threads": 1,
        "plan": "training: 1 trainer thread (1 OMP thread) + 1 prefetch "
                "producer = 2; serving: 2 workers x 1 OMP thread + 1 load "
                "generator = 3",
    },
    "train_ex3_ddp": {
        "omp_threads": 1,
        "plan": "training: 2 rank threads x 1 OMP thread + 2 prefetch "
                "producers = 4; serving: 2 workers x 1 OMP thread + 1 load "
                "generator = 3",
    },
    "serve_ex3": {
        "omp_threads": 1,
        "plan": "pipeline training: 1 thread + 1 prefetch producer = 2; "
                "serving: 2 workers x 1 OMP thread + 1 load generator = 3",
    },
}


def fail(code, message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def check_environment():
    knobs = sorted(k for k in os.environ if k.startswith("TRKX_"))
    if knobs:
        fail(2, "refusing to run with library knobs set in the environment "
                "(the benchmark measures the defaults): " + ", ".join(knobs))
    for path in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, path)):
            fail(2, "no trkx source tree next to perfbench/ (missing %s)" % path)


def build():
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "perfbench-build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    if (not os.path.isfile(cache) or os.path.getmtime(cache) <
            os.path.getmtime(os.path.join(HERE, "CMakeLists.txt"))):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench_runner",
                  "-j", jobs])
    with open(log_path, "a") as log:
        for cmd in steps:
            rc = subprocess.call(cmd, cwd=ROOT, stdout=log,
                                 stderr=subprocess.STDOUT)
            if rc != 0:
                with open(log_path) as f:
                    tail = f.read()[-3000:]
                fail(2, "build failed (%s):\n%s" % (" ".join(cmd), tail))


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown (not a git checkout)"


def run_workload(workload, seed, seconds, trace, scale, extra):
    spec = WORKLOADS[workload]
    env = dict(os.environ)
    env["OMP_NUM_THREADS"] = str(spec["omp_threads"])
    cmd = [RUNNER, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--scale", scale]
    if trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            OUT_DIR, "trace_%s_%s_seed%d.json" % (workload, scale, seed))]
    cmd += extra
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail(2, "%s: runner exceeded %d s" % (workload, RUN_TIMEOUT_S))
    result = None
    for line in out.splitlines():
        if line.startswith("PERFBENCH_RESULT "):
            result = json.loads(line[len("PERFBENCH_RESULT "):])
        else:
            print(line)
    if proc.returncode != 0 or result is None:
        fail(2, "%s: runner exited with code %d" % (workload, proc.returncode))
    return result


def check_fingerprint(result, scale, seed):
    fp = result["fingerprint"]
    print("fingerprint %s seed %d: events %d hits %d edges %d hash %s"
          % (result["workload"], seed, fp["events"], fp["hits"], fp["edges"],
             fp["hash"]))
    if seed != DEFAULT_SEED:
        return
    with open(FINGERPRINTS) as f:
        pinned = json.load(f)[scale][result["workload"]]
    if pinned != fp:
        fail(3, "workload %s: generated inputs do not match the fingerprint "
                "pinned for seed %d (pinned %s, got %s); the workload changed, "
                "so its numbers are not comparable with the parent's"
                % (result["workload"], seed, json.dumps(pinned),
                   json.dumps(fp)))


def run_one(args, workload, extra):
    result = run_workload(workload, args.seed, args.seconds, args.trace,
                        args.scale, extra)
    check_fingerprint(result, args.scale, args.seed)
    env = result["env"]
    print("environment: nproc %d, cpu %s, compiler %s, build type %s, "
          "git %s, OMP_NUM_THREADS %d" % (
              os.cpu_count() or 0, cpu_model(), env["compiler"],
              env["build_type"], git_sha(), env["omp_threads"]))
    print("thread plan %s: %s" % (workload, WORKLOADS[workload]["plan"]))
    print("parameter digest: %s" % result["param_digest"])
    return {"correct": bool(result["correct"]),
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": result["metrics"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=15,
                    help="length of the serving ladder; training runs a "
                         "fixed number of epochs")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "smoke"), default="full",
                    help="smoke: the self-test's reduced inputs")
    # Self-test hooks: prove the fingerprint and output checks trip.
    ap.add_argument("--perturb-input", action="store_true",
                    help=argparse.SUPPRESS)
    ap.add_argument("--corrupt-output", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.seconds < 1:
        fail(2, "--seconds must be >= 1")

    check_environment()
    t0 = time.monotonic()
    build()
    print("build: %.1f s" % (time.monotonic() - t0))
    extra = []
    if args.perturb_input:
        extra += ["--perturb-input", "1"]
    if args.corrupt_output:
        extra += ["--corrupt-output", "1"]

    if args.workload != "all":
        line = run_one(args, args.workload, extra)
        print(json.dumps(line))
        return 0
    ok = True
    for workload in sorted(WORKLOADS):
        line = run_one(args, workload, extra)
        ok = ok and line["correct"] and line["failed"] == 0
        print("%s:" % workload)
        for name, m in line["metrics"].items():
            print("  %-32s %14.6g %s" % (name, m["value"], m["unit"]))
        print(json.dumps(line))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
