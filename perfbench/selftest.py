#!/usr/bin/env python3
"""Self-test of the benchmark of record, at smoke scale (about two minutes).

    python3 perfbench/selftest.py

Checks that
  * every workload prints every end-to-end metric of BENCHMARK.json with its
    unit (--trace 0) and every per-layer metric with its unit (--trace 1),
    with the output checks passing;
  * a perturbed input trips the fingerprint check (exit 3, names the
    workload);
  * a corrupted served result trips the correctness check;
  * a TRKX_* knob in the environment is refused;
  * a directory holding only BENCHMARK.json and perfbench/ fails without
    printing a result.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join("perfbench", "run.py")


def run(args, env=None, cwd=ROOT):
    return subprocess.run(["python3", RUN] + args, cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=900)


def result_line(proc):
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return None
    try:
        line = json.loads(lines[-1])
    except ValueError:
        return None
    return line if isinstance(line, dict) else None


def check(cond, what, proc=None):
    if cond:
        print("ok   " + what)
        return True
    print("FAIL " + what)
    if proc is not None:
        print(proc.stdout[-2000:])
        print(proc.stderr[-2000:])
    return False


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    smoke = ["--seed", "1", "--seconds", "2", "--scale", "smoke"]
    ok = True
    for w in bench["workloads"]:
        name = w["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(["--workload", name, "--trace", str(trace)] + smoke)
            line = result_line(proc)
            ok &= check(proc.returncode == 0 and line is not None and
                        set(line) == {"correct", "attempted", "failed",
                                      "metrics"},
                        "%s --trace %d prints a result line" % (name, trace),
                        proc)
            if line is None:
                continue
            ok &= check(line["correct"] is True and line["failed"] == 0 and
                        line["attempted"] >= 1,
                        "%s --trace %d output checks pass" % (name, trace),
                        proc)
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {k: v.get("unit") for k, v in line["metrics"].items()}
            ok &= check(got == want,
                        "%s --trace %d prints every %s metric with its unit"
                        % (name, trace, key))
            if got != want:
                print("  missing or wrong: %s" % sorted(
                    k for k in set(want) | set(got)
                    if want.get(k) != got.get(k)))

    proc = run(["--workload", "serve_ex3", "--perturb-input"] + smoke)
    ok &= check(proc.returncode == 3 and "serve_ex3" in proc.stderr and
                result_line(proc) is None,
                "a perturbed input trips the fingerprint check", proc)

    proc = run(["--workload", "train_ex3_ddp", "--corrupt-output"] + smoke)
    line = result_line(proc)
    ok &= check(line is not None and line["correct"] is False and
                line["failed"] >= 1,
                "a corrupted served result trips the correctness check", proc)

    env = dict(os.environ, TRKX_SIMD="scalar")
    proc = run(["--workload", "train_ctd"] + smoke, env=env)
    ok &= check(proc.returncode == 2 and "TRKX_SIMD" in proc.stderr,
                "a TRKX_* knob in the environment is refused", proc)

    bare = os.path.join(ROOT, ".bench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(["--workload", "train_ctd"] + smoke, cwd=bare)
    ok &= check(proc.returncode != 0 and result_line(proc) is None,
                "a directory with only the benchmark's files fails cleanly",
                proc)
    shutil.rmtree(bare, ignore_errors=True)

    print("selftest: %s" % ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
