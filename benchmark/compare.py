#!/usr/bin/env python3
"""Compare two sets of HetBench runs.

    python3 benchmark/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the records `run.py --out DIR` writes. Untraced
records are paired in order (by seed, then by run), so run the two sides
alternately. One row per workload x end-to-end metric gives each side's
median, quartiles and run count, and a verdict under the BENCHMARK.json
bound of the metric:

  better      at least 10 pairs, the change wins at least 9/10 of them,
              and the medians differ by more than the parent's IQR
  unresolved  a side's IQR, as a share of its median, exceeds the bound,
              and not every change run beats every parent run
  regressed   the change's median is worse than the parent's by more
              than the bound
  no worse    otherwise

fail_frac and paper_err are deterministic: they are compared exactly,
and any change of paper_err (a change in simulated results) regresses.
Exits 1 when any row regressed or was unresolved.
"""

import json
import statistics
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent /
                   "BENCHMARK.json").read_text())
BOUNDED = {m["name"]: m for m in SPEC["end_to_end"]}
EXACT = ("fail_frac", "paper_err")


def describe(values):
    """Median, quartiles (statistics.quantiles, n=4) and count."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def load(directory):
    """{workload: {metric: [values in run order]}} of untraced records."""
    records = []
    for path in Path(directory).glob("*.json"):
        r = json.loads(path.read_text())
        if r.get("trace") == 0:
            counter = int(path.stem.rsplit("-", 1)[1])
            records.append((r["workload"], r["seed"], counter, r))
    out = {}
    for workload, _, _, r in sorted(records, key=lambda x: x[:3]):
        for name, m in r["metrics"].items():
            out.setdefault(workload, {}).setdefault(name, []).append(
                m["value"])
    return out


def bounded_verdict(parent, change, spec):
    lower = spec["better"] == "lower"

    def worse_by(a, b):  # how much b is worse than a (negative: better)
        return b - a if lower else a - b

    p, c = describe(parent), describe(change)
    gap = worse_by(p["median"], c["median"]) / p["median"]
    spread = max((p["q3"] - p["q1"]) / p["median"],
                 (c["q3"] - c["q1"]) / c["median"])
    pairs = list(zip(parent, change))
    wins = sum(worse_by(b, a) > 0 for a, b in pairs)
    all_better = all(worse_by(a, b) < 0 for a in parent for b in change)
    if (len(pairs) >= 10 and wins >= 0.9 * len(pairs) and gap < 0 and
            abs(c["median"] - p["median"]) > p["q3"] - p["q1"]):
        return "better"
    if spread > spec["bound"] and not all_better:
        return "unresolved"
    if gap > spec["bound"]:
        return "regressed"
    return "no worse"


def exact_verdict(name, parent, change):
    if set(parent) == set(change) and len(set(parent)) == 1:
        return "no worse"
    if name == "fail_frac" and max(change) <= min(parent):
        return "better"
    return "regressed"


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__)
    parent, change = load(argv[1]), load(argv[2])
    bad = 0
    print(f"{'workload':<14} {'metric':<12} {'parent median [q1, q3] n':<38}"
          f" {'change median [q1, q3] n':<38} verdict")
    for workload in sorted(set(parent) & set(change)):
        for name in [*BOUNDED, *EXACT]:
            pv = parent[workload].get(name)
            cv = change[workload].get(name)
            if not pv or not cv:
                continue
            if name in BOUNDED:
                verdict = bounded_verdict(pv, cv, BOUNDED[name])
            else:
                verdict = exact_verdict(name, pv, cv)
            bad += verdict in ("regressed", "unresolved")
            cols = []
            for values in (pv, cv):
                d = describe(values)
                cols.append(f"{d['median']:.6g} [{d['q1']:.6g}, "
                            f"{d['q3']:.6g}] {d['n']}")
            print(f"{workload:<14} {name:<12} {cols[0]:<38} {cols[1]:<38} "
                  f"{verdict}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
