"""Compare two sets of benchmark runs.

    python3 bench/compare.py A.jsonl B.jsonl

Each file holds the records that `run.py --record FILE` appends, one per
run. For every workload and end-to-end metric this prints each side's
median and quartiles, each side's spread (quartile distance over median),
and whether B's median is no worse than A's by more than the metric's bound
in BENCHMARK.json. It also compares the failed share of the two sets. Exits
1 when any median or failed share disagrees, 0 otherwise.
"""
from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path):
    runs = defaultdict(list)
    for line in Path(path).read_text().splitlines():
        if line.strip():
            rec = json.loads(line)
            if not rec.get("trace"):
                runs[rec["workload"]].append(rec)
    return runs


def failed_shares(runs):
    """The distinct exact failed/attempted fractions of a set of runs."""
    return sorted({Fraction(r["failed"], r["attempted"]) for r in runs})


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv) -> int:
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    a, b = load(argv[0]), load(argv[1])
    ok = True
    header = (f"{'workload':8s} {'metric':12s} {'A q1':>10s} {'A med':>10s} "
              f"{'A q3':>10s} {'A spr':>6s} {'B q1':>10s} {'B med':>10s} "
              f"{'B q3':>10s} {'B spr':>6s} {'worse':>7s} {'bound':>6s}  verdict")
    print(header)
    for w in [w["name"] for w in spec["workloads"]]:
        if not a.get(w) or not b.get(w):
            print(f"{w:8s} missing runs (A {len(a.get(w, []))}, B {len(b.get(w, []))})")
            ok = False
            continue
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            qa = quartiles([r["metrics"][name]["value"] for r in a[w]])
            qb = quartiles([r["metrics"][name]["value"] for r in b[w]])
            sign = 1.0 if m["better"] == "lower" else -1.0
            worse = sign * (qb[1] - qa[1]) / qa[1]
            spread_a = (qa[2] - qa[0]) / qa[1]
            spread_b = (qb[2] - qb[0]) / qb[1]
            agree = worse <= bound
            steady = name == "setup_s" or max(spread_a, spread_b) <= bound
            verdict = ("agree" if agree else "WORSE") + ("" if steady else ", SPREAD>bound")
            ok &= agree and steady
            print(f"{w:8s} {name:12s} {qa[0]:10.4g} {qa[1]:10.4g} {qa[2]:10.4g} "
                  f"{spread_a:6.3f} {qb[0]:10.4g} {qb[1]:10.4g} {qb[2]:10.4g} "
                  f"{spread_b:6.3f} {worse:+7.3f} {bound:6.2f}  {verdict}")
        sa, sb = failed_shares(a[w]), failed_shares(b[w])
        same = len(sa) == 1 and sa == sb
        ok &= same
        fmt = lambda fr: ", ".join(str(f) for f in fr)
        print(f"{w:8s} failed share A [{fmt(sa)}] B [{fmt(sb)}]: "
              f"{'same' if same else 'DIFFERENT'}; "
              f"runs A {len(a[w])} B {len(b[w])}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
