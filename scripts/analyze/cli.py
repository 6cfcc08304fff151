"""trkx-analyze CLI: run the analysis passes over the repo and report
findings as ``file:line: [rule] message`` (exit 1 when any survive).

Usage:
    trkx-analyze [--root DIR] [--passes a,b,...] [--list-rules]
                 [--check-headers] [--compiler CXX] [--sarif FILE]
                 [--baseline FILE]

Passes and their scopes:

    omp-sharing     src/            OpenMP data-sharing clauses
    layering        src/            include DAG layer order + cycles
    numeric-safety  src/            divisions, exp/log, narrowing casts
    kernel-dispatch src/            multiply-accumulate hot loops must
                    route through the kernels::active() dispatch table
    conventions     src/ + tests/   the original project-lint rules
    lock-order      src/            cross-TU lock-acquisition graph:
                    order inversions, blocking ops under locks
    throw-boundary  src/            throwing paths inside OpenMP
                    regions / thread entries without a barrier
    env-registry    src/ + bench/ + examples/   TRKX_* knobs must route
                    through the trkx::env registry
    collective-consistency  src/    every rank must reach the same
                    collective sequence; divergent branches and
                    swallowing handlers around collectives
    hot-path        src/            TRKX_HOT inference closure stays
                    free of heap allocation and blocking ops
    rng-stream      src/            sampling randomness must derive
                    from (rank,epoch,event,batch) Rng::stream keys

All passes from lock-order down are *cross-TU*: they run over per-file
facts (scripts/analyze/facts.py) joined into a whole-program index.
``--facts-out FILE`` dumps that fact database as JSON for offline
inspection (a failed dump is itself a failure — CI archives it).

``--sarif FILE`` additionally writes the findings as SARIF 2.1.0 for
editors and code scanning. ``--baseline FILE`` loads a committed
baseline (schema trkx-analyze-baseline-v1) and gates only on findings
not already recorded there — the ratchet for adopting a new pass on a
tree with known, triaged debt.

Suppression: ``NOLINT(<rule>): reason`` on the offending line or the
line directly above it; bare ``NOLINT`` blankets the line.
"""

import argparse
import json
import os
import sys

from . import (collective_consistency, conventions, env_registry, facts,
               hot_path, kernel_dispatch, layering, lock_order,
               numeric_safety, omp_sharing, rng_stream, sarif,
               throw_boundary)
from .common import SourceTree

# pass name -> (module, subdirs it runs over)
PASSES = {
    "omp-sharing": (omp_sharing, ("src",)),
    "layering": (layering, ("src",)),
    "numeric-safety": (numeric_safety, ("src",)),
    "kernel-dispatch": (kernel_dispatch, ("src",)),
    "conventions": (conventions, ("src", "tests")),
    "lock-order": (lock_order, ("src",)),
    "throw-boundary": (throw_boundary, ("src",)),
    "env-registry": (env_registry, ("src", "bench", "examples")),
    "collective-consistency": (collective_consistency, ("src",)),
    "hot-path": (hot_path, ("src",)),
    "rng-stream": (rng_stream, ("src",)),
}

BASELINE_SCHEMA = "trkx-analyze-baseline-v1"


def load_baseline(path):
    """{(path, line, rule)} from a committed baseline file."""
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    if doc.get("schema") != BASELINE_SCHEMA:
        raise ValueError(f"baseline schema {doc.get('schema')!r} != "
                         f"{BASELINE_SCHEMA!r}")
    out = set()
    for entry in doc.get("findings", []):
        out.add((entry["path"], int(entry["line"]), entry["rule"]))
    return out


def default_root():
    """scripts/analyze/cli.py -> repo root two levels up from scripts/."""
    return os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="trkx-analyze", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", default=None,
                        help="repo root (default: the tree containing "
                             "this script)")
    parser.add_argument("--passes", default=",".join(PASSES),
                        help="comma-separated pass names "
                             f"(default: all = {','.join(PASSES)})")
    parser.add_argument("--list-rules", action="store_true",
                        help="print every rule with its description")
    parser.add_argument("--check-headers", action="store_true",
                        help="also compile every src/ header standalone "
                             "(conventions pass)")
    parser.add_argument("--compiler",
                        default=os.environ.get("CXX", "c++"),
                        help="compiler for --check-headers")
    parser.add_argument("--facts-out", default=None, metavar="FILE",
                        help="dump the cross-TU fact database (src/) as "
                             "JSON to FILE ('-' for stdout)")
    parser.add_argument("--counts-out", default=None, metavar="FILE",
                        help="write per-pass finding counts as a JSON "
                             "object (feeds the ci_matrix summary)")
    parser.add_argument("--sarif", default=None, metavar="FILE",
                        help="also write findings as SARIF 2.1.0")
    parser.add_argument("--baseline", default=None, metavar="FILE",
                        help="gate only on findings absent from this "
                             f"committed baseline ({BASELINE_SCHEMA})")
    args = parser.parse_args(argv)

    if args.list_rules:
        for name, (mod, _) in PASSES.items():
            for rule, desc in mod.RULES.items():
                print(f"{name}/{rule}: {desc}")
        return 0

    names = [p.strip() for p in args.passes.split(",") if p.strip()]
    unknown = [p for p in names if p not in PASSES]
    if unknown:
        print(f"trkx-analyze: unknown pass(es): {', '.join(unknown)} "
              f"(known: {', '.join(PASSES)})", file=sys.stderr)
        return 2

    root = args.root or default_root()
    trees = {}
    findings = []
    counts = {}
    n_files = 0
    for name in names:
        mod, subdirs = PASSES[name]
        if subdirs not in trees:
            trees[subdirs] = SourceTree(root, subdirs)
        tree = trees[subdirs]
        pass_findings = mod.run(tree)
        counts[name] = len(pass_findings)
        findings.extend(pass_findings)
    if args.check_headers and "conventions" in names:
        conventions.check_headers(root, args.compiler, findings)
    if args.facts_out:
        # A failed dump must fail the run even with zero findings:
        # CI archives this file, and a silently missing archive is a
        # debugging dead end.
        try:
            tree = trees.setdefault(("src",), SourceTree(root, ("src",)))
            payload = facts.Project.for_tree(tree).to_json()
            if args.facts_out == "-":
                print(payload)
            else:
                with open(args.facts_out, "w", encoding="utf-8") as f:
                    f.write(payload + "\n")
        except (OSError, ValueError) as exc:
            print(f"trkx-analyze: facts dump to {args.facts_out!r} "
                  f"failed: {exc}", file=sys.stderr)
            return 2
    if args.counts_out:
        try:
            with open(args.counts_out, "w", encoding="utf-8") as f:
                json.dump(counts, f, sort_keys=True)
                f.write("\n")
        except OSError as exc:
            print(f"trkx-analyze: counts dump to {args.counts_out!r} "
                  f"failed: {exc}", file=sys.stderr)
            return 2
    for tree in trees.values():
        n_files = max(n_files, sum(1 for _ in tree.rel_paths()))

    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    if args.sarif:
        rules = {}
        for name in names:
            rules.update(PASSES[name][0].RULES)
        try:
            sarif.write(args.sarif, findings, rules)
        except OSError as exc:
            print(f"trkx-analyze: sarif dump to {args.sarif!r} "
                  f"failed: {exc}", file=sys.stderr)
            return 2

    baselined = 0
    if args.baseline:
        try:
            known = load_baseline(args.baseline)
        except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
            print(f"trkx-analyze: cannot load baseline "
                  f"{args.baseline!r}: {exc}", file=sys.stderr)
            return 2
        kept = [f for f in findings
                if (f.path, f.line, f.rule) not in known]
        baselined = len(findings) - len(kept)
        findings = kept

    for f in findings:
        print(str(f), file=sys.stderr)
    suffix = f" ({baselined} baselined)" if baselined else ""
    if findings:
        print(f"trkx-analyze: {len(findings)} finding(s) "
              f"[{', '.join(names)}] over {n_files} files{suffix}",
              file=sys.stderr)
        return 1
    print(f"trkx-analyze: OK [{', '.join(names)}] "
          f"({n_files} files){suffix}")
    return 0
