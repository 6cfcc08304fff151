#!/usr/bin/env python3
"""Self-test for trkx-analyze: run every pass over the seeded-violation
fixture tree (scripts/analyze/fixtures/) and compare the findings against
the golden list (fixtures/expected.txt).

Two failure modes are caught:

  * a pass stops detecting a seeded violation (regression in detection),
  * a pass starts reporting something new on the fixtures (false positive
    drift — the fixtures double as a "no noise" corpus via the NOLINT
    suppression file, which must contribute zero findings).

The golden list must also exercise every rule every pass declares, so a
new rule cannot land without a fixture proving it fires.

Beyond the exact match, the selftest also round-trips the findings
through the SARIF 2.1.0 emitter (structure validated, one result per
golden finding) and through the CLI's --baseline gate (a baseline of
exactly the golden findings must turn exit 1 into exit 0).

Exit status: 0 on exact match, 1 otherwise (one diff line per mismatch).
"""

import contextlib
import io
import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from analyze import (cli, collective_consistency, conventions, env_registry,
                     hot_path, kernel_dispatch, layering, lock_order,
                     numeric_safety, omp_sharing, rng_stream, sarif,
                     throw_boundary)
from analyze.common import SourceTree

PASSES = (omp_sharing, layering, numeric_safety, kernel_dispatch, conventions,
          lock_order, throw_boundary, env_registry, collective_consistency,
          hot_path, rng_stream)


def load_expected(path):
    expected = set()
    with open(path, encoding="utf-8") as f:
        for raw in f:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            # "<path>:<line>: <rule>"
            loc, rule = line.rsplit(": ", 1)
            rel, lineno = loc.rsplit(":", 1)
            expected.add((rel, int(lineno), rule))
    return expected


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    fixtures = os.path.join(here, "fixtures")
    expected = load_expected(os.path.join(fixtures, "expected.txt"))

    tree = SourceTree(fixtures, ("src",))
    actual = set()
    findings = []
    for mod in PASSES:
        for f in mod.run(tree):
            actual.add((f.path, f.line, f.rule))
            findings.append(f)

    ok = True
    for rel, lineno, rule in sorted(expected - actual):
        print(f"MISSED (seeded but not detected): {rel}:{lineno}: {rule}")
        ok = False
    for rel, lineno, rule in sorted(actual - expected):
        print(f"UNEXPECTED (not in golden list): {rel}:{lineno}: {rule}")
        ok = False

    # Every declared rule must be exercised by at least one seeded finding.
    declared = set()
    for mod in PASSES:
        declared.update(mod.RULES)
    exercised = {rule for _, _, rule in expected}
    for rule in sorted(declared - exercised):
        print(f"UNCOVERED (rule has no seeded fixture): {rule}")
        ok = False

    # SARIF round trip: emit the fixture findings, re-read, validate.
    rules = {}
    for mod in PASSES:
        rules.update(mod.RULES)
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    fd, sarif_path = tempfile.mkstemp(suffix=".sarif")
    os.close(fd)
    try:
        sarif.write(sarif_path, findings, rules)
        with open(sarif_path, encoding="utf-8") as f:
            doc = json.load(f)
        sarif.validate(doc)
        n_results = len(doc["runs"][0]["results"])
        if n_results != len(findings):
            print(f"SARIF: {n_results} results != {len(findings)} findings")
            ok = False
    except (ValueError, KeyError, OSError) as exc:
        print(f"SARIF: emitted file failed validation: {exc}")
        ok = False
    finally:
        os.unlink(sarif_path)

    # Baseline gate: the CLI over the fixture tree exits 1 bare, and 0
    # once every golden finding is recorded in a baseline file.
    fd, bl_path = tempfile.mkstemp(suffix=".json")
    os.close(fd)
    try:
        with open(bl_path, "w", encoding="utf-8") as f:
            json.dump({"schema": cli.BASELINE_SCHEMA,
                       "findings": [{"path": p, "line": li, "rule": r}
                                    for p, li, r in sorted(expected)]}, f)
        sink = io.StringIO()
        with contextlib.redirect_stderr(sink), \
                contextlib.redirect_stdout(sink):
            bare = cli.main(["--root", fixtures])
            gated = cli.main(["--root", fixtures, "--baseline", bl_path])
        if bare != 1:
            print(f"BASELINE: bare CLI run over fixtures exited {bare}, "
                  "expected 1")
            ok = False
        if gated != 0:
            print(f"BASELINE: baselined CLI run exited {gated}, expected 0")
            ok = False
    finally:
        os.unlink(bl_path)

    if ok:
        print(f"analyze-selftest: OK ({len(expected)} seeded findings, "
              f"{len(declared)} rules exercised, sarif+baseline verified)")
        return 0
    return 1


if __name__ == "__main__":
    sys.exit(main())
