#!/usr/bin/env python3
"""Compare two sets of ``run.py --out`` results, metric by metric.

    python3 benchmarks/e2e/compare.py A1.json A2.json A3.json -- B1.json B2.json B3.json

A is the base (the parent commit, or the first set of runs of one commit
when checking repeatability), B the candidate.  One row per end-to-end
metric and workload: each side's median and quartiles, the ratio B/A with
its base, and a verdict against the metric's bound:

* ``regressed``  — B's median is worse than A's by more than the bound;
* ``unresolved`` — it is not, but A's own run-to-run spread is wider than
  the bound, so "no change" cannot be claimed (unless every run of B is
  better than every run of A);
* ``ok``         — otherwise.

Per-layer metrics are listed without a verdict when both sides carry
them.  Exits 1 if any row regressed.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from catalog import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402
from quantiles import quartiles, spread  # noqa: E402


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    """``ok`` / ``regressed`` / ``unresolved`` for one metric on one workload."""
    sign = 1.0 if better == "lower" else -1.0
    base = quartiles(a)[1]
    worse_by = sign * (quartiles(b)[1] - base) / abs(base) if base else 0.0
    if worse_by > bound:
        return "regressed"
    if spread(a) > bound:
        b_all_better = max(sign * x for x in b) < min(sign * x for x in a)
        return "ok" if b_all_better else "unresolved"
    return "ok"


def load(paths: list[str]) -> list[dict]:
    docs = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            docs.append(json.load(fh))
    return docs


def values(docs: list[dict], workload: str, section: str, metric: str) -> list[float]:
    out = []
    for doc in docs:
        block = doc["workloads"].get(workload, {}).get(section)
        if block is not None and metric in block:
            out.append(block[metric])
    return out


def cell(xs: list[float]) -> str:
    q1, q2, q3 = quartiles(xs)
    return f"{q2:.6g} [{q1:.6g}, {q3:.6g}]"


def main(argv: list[str]) -> int:
    if "--" not in argv or argv[0] == "--" or argv[-1] == "--":
        print(__doc__, file=sys.stderr)
        return 2
    split = argv.index("--")
    a_docs, b_docs = load(argv[:split]), load(argv[split + 1:])
    seeds = {d["provenance"]["seed"] for d in a_docs + b_docs}
    print(f"A: {len(a_docs)} runs of {sorted({str(d['provenance']['git_sha'])[:12] for d in a_docs})}, "
          f"B: {len(b_docs)} runs of {sorted({str(d['provenance']['git_sha'])[:12] for d in b_docs})}, "
          f"seeds {sorted(seeds)}")
    header = f"{'workload':<13}{'metric':<46}{'A median [q1, q3]':<38}{'B median [q1, q3]':<38}{'B/A':>9}  {'bound':>6}  verdict"
    print(header)
    regressed = 0
    for workload in WORKLOADS:
        for metric in END_TO_END:
            a = values(a_docs, workload, "end_to_end", metric.name)
            b = values(b_docs, workload, "end_to_end", metric.name)
            if not a or not b:
                continue
            base = quartiles(a)[1]
            ratio = quartiles(b)[1] / base if base else float("nan")
            word = verdict(a, b, metric.better, metric.bound)
            regressed += word == "regressed"
            print(f"{workload:<13}{metric.name:<46}{cell(a):<38}{cell(b):<38}"
                  f"{ratio:>9.4f}  {metric.bound:>6.3g}  {word}")
        # Failures are held to zero growth, not to a relative bound.
        a = [d["workloads"][workload]["fail_share"] for d in a_docs if workload in d["workloads"]]
        b = [d["workloads"][workload]["fail_share"] for d in b_docs if workload in d["workloads"]]
        if a and b:
            word = "regressed" if max(b) > max(a) else "ok"
            regressed += word == "regressed"
            print(f"{workload:<13}{'fail_share':<46}{cell(a):<38}{cell(b):<38}{'':>9}  {'+0':>6}  {word}")
        if len(seeds) == 1:
            # Same seed on both sides: the deterministic facts must repeat.
            facts_a = [d["workloads"][workload]["facts"] for d in a_docs if workload in d["workloads"]]
            facts_b = [d["workloads"][workload]["facts"] for d in b_docs if workload in d["workloads"]]
            seen = {f["admitted_hash"] for f in facts_a + facts_b if "admitted_hash" in f}
            if seen:
                print(f"{workload:<13}{'admitted_hash':<46}"
                      f"{'repeats exactly' if len(seen) == 1 else 'DIFFERS: ' + str(sorted(seen))}")
    for workload in WORKLOADS:
        for metric in PER_LAYER:
            a = values(a_docs, workload, "per_layer", metric.name)
            b = values(b_docs, workload, "per_layer", metric.name)
            if not a or not b or not (any(a) or any(b)):
                continue
            base = quartiles(a)[1]
            ratio = f"{quartiles(b)[1] / base:>9.4f}" if base else f"{'':>9}"
            print(f"{workload:<13}{metric.name:<46}{cell(a):<38}{cell(b):<38}{ratio}")
    print(f"{regressed} regressed")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
