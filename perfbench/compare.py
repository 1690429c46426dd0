"""Compare two result sets written by `run.py --out`.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

For each workload and end-to-end metric it prints each side's median and
quartiles and a verdict under the rule in choosing-metrics section 8: a side
"wins" a pair (the two runs with one seed) when its value is better, and the
change is "improved" only when it wins at least 9/10 of the pairs and its
median beats the parent's by more than the parent's interquartile range;
"worse" is the mirror image, and anything else is "unresolved".  The bound
column says whether the change's median is within the metric's bound from
BENCHMARK.json.  It also prints the change in failed_ops_ratio, for the
timed mix and for the known-defect probes.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    """workload -> seed -> untraced record."""
    out = defaultdict(dict)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            if rec.get("trace") == 0 and rec.get("correct"):
                out[rec["workload"]][rec["seed"]] = rec
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, pairs, lower_is_better):
    """improved / worse / unresolved for one metric."""
    sign = 1 if lower_is_better else -1
    wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) > 0)
    p1, pm, p3 = quartiles(parent)
    cm = statistics.median(change)
    gain = sign * (pm - cm)
    if pairs and wins >= 0.9 * len(pairs) and gain > p3 - p1:
        return "improved", wins, losses
    if pairs and losses >= 0.9 * len(pairs) and -gain > p3 - p1:
        return "worse", wins, losses
    return "unresolved", wins, losses


def failed_ratio(records, key):
    if key == "probes":
        attempted = sum(r["probes"]["attempted"] for r in records)
        failed = sum(r["probes"]["failed"] for r in records)
    else:
        attempted = sum(r["attempted"] for r in records)
        failed = sum(r["failed"] for r in records)
    return failed / attempted if attempted else 0.0


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    parent, change = load(argv[0]), load(argv[1])
    for workload in sorted(set(parent) | set(change)):
        pw, cw = parent.get(workload, {}), change.get(workload, {})
        seeds = sorted(set(pw) & set(cw))
        print(f"{workload}: {len(pw)} parent runs, {len(cw)} change runs, {len(seeds)} pairs")
        if not pw or not cw:
            continue
        print(f"  {'metric':12s} {'parent q1/median/q3':>32s} {'change q1/median/q3':>32s}"
              f"  {'wins/losses':>11s}  verdict     bound")
        for name, m in spec.items():
            pv = [r["metrics"][name] for r in pw.values()]
            cv = [r["metrics"][name] for r in cw.values()]
            pairs = [(pw[s]["metrics"][name], cw[s]["metrics"][name]) for s in seeds]
            lower = m["better"] == "lower"
            result, wins, losses = verdict(pv, cv, pairs, lower)
            pm, cm = statistics.median(pv), statistics.median(cv)
            worse_by = (cm - pm) / pm if lower else (pm - cm) / pm
            bound = "within" if worse_by <= m["bound"] else f"exceeds {m['bound']:g}"
            fmt = "{:10.4g}/{:10.4g}/{:10.4g}"
            print(f"  {name:12s} {fmt.format(*quartiles(pv)):>32s} {fmt.format(*quartiles(cv)):>32s}"
                  f"  {wins:>5d}/{losses:<5d}  {result:10s}  {bound}")
        for key, label in (("mix", "timed mix"), ("probes", "known-defect probes")):
            p, c = failed_ratio(list(pw.values()), key), failed_ratio(list(cw.values()), key)
            print(f"  failed_ops_ratio ({label}): {p:.4f} -> {c:.4f} ({c - p:+.4f})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
