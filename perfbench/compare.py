#!/usr/bin/env python3
"""Compares benchmark results of two commits.

    python3 perfbench/compare.py BASE.json [BASE.json ...] -- HEAD.json [...]

Each argument is a result file written by run.py (under <build>/results/),
all of one workload and trace mode. Refuses to compare when any machine field
(cores, intra-op threads, CPU model, compiler, SIMD and compile flags)
differs between the files: numbers from different machines are not
comparable. For every end-to-end metric it prints each side's median and
quartiles and the change against the bound in BENCHMARK.json:
"regression" when the head's median is worse than the base's by more than the
bound, "unresolved" when the base's own spread exceeds the bound.
"""
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(paths):
    out = []
    for p in paths:
        with open(p) as f:
            out.append(json.load(f))
    return out


def machine(result):
    return {k: v for k, v in result["meta"].items() if k.startswith("machine.")}


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv):
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    cut = argv.index("--")
    base, head = load(argv[:cut]), load(argv[cut + 1:])
    if not base or not head:
        print("need at least one result on each side", file=sys.stderr)
        return 2
    everything = base + head
    ref = machine(everything[0])
    for r in everything[1:]:
        diff = {k for k in set(ref) | set(machine(r))
                if ref.get(k) != machine(r).get(k)}
        if diff:
            print("refusing to compare: machine fields differ: " +
                  ", ".join(sorted(diff)), file=sys.stderr)
            return 3
    kinds = {(r["workload"], r["trace"]) for r in everything}
    if len(kinds) != 1:
        print(f"refusing to compare mixed workloads/trace modes: {kinds}",
              file=sys.stderr)
        return 3
    workload, trace = kinds.pop()
    failed = [r for r in everything if not r["correct"]]
    if failed:
        print(f"warning: {len(failed)} result(s) failed their correctness "
              "checks", file=sys.stderr)

    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    section = "per_layer" if trace else "end_to_end"
    print(f"workload {workload}, trace {trace}: {len(base)} base vs "
          f"{len(head)} head run(s)")
    print(f"{'metric':44} {'base median [q1, q3]':>34} "
          f"{'head median [q1, q3]':>34} {'change':>8}  verdict")
    status = 0
    for m in spec[section]:
        name = m["name"]
        b = [r[section][name]["value"] for r in base if name in r[section]]
        h = [r[section][name]["value"] for r in head if name in r[section]]
        if not b or not h:
            continue
        bq1, bmed, bq3 = quartiles(b)
        hq1, hmed, hq3 = quartiles(h)
        change = (hmed - bmed) / bmed if bmed else 0.0
        verdict = ""
        if "bound" in m:
            worse = change if m["better"] == "lower" else -change
            spread = (bq3 - bq1) / bmed if bmed else 0.0
            if worse > m["bound"]:
                verdict = "regression"
                status = 1
            elif spread > m["bound"]:
                verdict = "unresolved"
            else:
                verdict = f"within {m['bound']:.0%}"
        print(f"{name:44} {bmed:12.6g} [{bq1:9.4g}, {bq3:9.4g}] "
              f"{hmed:12.6g} [{hq1:9.4g}, {hq3:9.4g}] {change:+8.1%}  "
              f"{verdict}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
