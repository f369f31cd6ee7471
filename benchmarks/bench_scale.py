#!/usr/bin/env python
"""Capacity-planning benchmark: how many tenants a fleet takes, where it
saturates, and what an admit costs, against fleet size.

Offers one seeded stream of ``traffic.workload.make_sfcs`` chains, in order,
to link-less ``FabricOrchestrator(with_dataplane=False)`` fleets of growing
switch count at the fabric's defaults (consistent-hash partitioner,
consolidated block accounting, every admission check), timing each
successful admit, then audits each fleet with ``check_invariant()``.  Per
fleet it records admitted tenants and spillovers, p50/p99 admit latency,
offers per second and ``last_admit_at`` — the offer (counted from 1) that
landed the fleet's last tenant, where it saturated — into
``BENCH_scale.json``.

Run directly (no pytest needed):

    python benchmarks/bench_scale.py            # 20 000 offers per 16/64/256-switch fleet
    python benchmarks/bench_scale.py --smoke    # 10 000 offers per 4/16/64-switch fleet

Exits non-zero on a failed audit, on a fleet still admitting in the second
half of its offers (the sweep no longer reaches saturation), or, with
``--smoke``, on an offer rate below the floor.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

if __package__ in (None, ""):  # running as a script: make src/ importable
    sys.path.insert(
        0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    )

from repro.core.spec import SwitchSpec
from repro.fabric import FabricOrchestrator, FabricTopology, SwitchNode
from repro.rng import DEFAULT_SEED
from repro.traffic.workload import WorkloadConfig, make_sfcs

#: Offers per fleet: at least twice the offer that fills the largest fleet
#: of each sweep (about 2 400 on 64 switches, 9 800 on 256).
SMOKE_OFFERS = 10_000
FULL_OFFERS = 20_000

#: Fleet sizes swept (switch counts).  A full fleet walks every switch per
#: refused offer, so the offer rate falls about as 1/fleet.
SMOKE_FLEETS = (4, 16, 64)
FULL_FLEETS = (16, 64, 256)

#: Collapse guard, not a perf target: the slowest smoke fleet (64
#: switches) clears about 1 100-1 400 offers/s on a 2-core Xeon; below
#: this something regressed badly.
SMOKE_OFFERS_PER_SEC_FLOOR = 500.0

WORKLOAD = WorkloadConfig(
    num_sfcs=0, num_types=6, avg_chain_length=3, chain_length_spread=2,
    rules_min=1, rules_max=4, mean_bandwidth_gbps=1.0, max_bandwidth_gbps=4.0,
)

#: Deliberately tight per-switch spec (the campaign library's switch):
#: small fleets saturate visibly, so the admission curve has shape.
SCALE_SPEC = SwitchSpec(
    stages=4, blocks_per_stage=6, block_bits=6400, rule_bits=64,
    capacity_gbps=60.0,
)


def fill(sfcs, num_switches: int) -> dict:
    """Offer every chain to one fresh link-less fleet; its report row."""
    topology = FabricTopology(
        [
            SwitchNode(f"sw{i}", spec=SCALE_SPEC, max_recirculations=1)
            for i in range(num_switches)
        ]
    )
    fabric = FabricOrchestrator(
        topology, num_types=WORKLOAD.num_types, with_dataplane=False
    )
    latencies: list[float] = []
    spillovers = 0
    last_admit_at = 0
    perf = time.perf_counter
    start = perf()
    for offer, sfc in enumerate(sfcs, 1):
        t0 = perf()
        result = fabric.admit(sfc)
        if result.ok:
            latencies.append(perf() - t0)
            spillovers += result.spillover > 0
            last_admit_at = offer
    wall = perf() - start
    problems = fabric.check_invariant()
    p50 = p99 = None
    if latencies:
        p50, p99 = np.round(np.percentile(latencies, (50, 99)) * 1e6, 2).tolist()
    return {
        "switches": num_switches,
        "offered": len(sfcs),
        "admitted": len(latencies),
        "tenants_per_switch": round(len(latencies) / num_switches, 2),
        "admission_rate": round(len(latencies) / len(sfcs), 5),
        "spillovers": spillovers,
        "last_admit_at": last_admit_at,
        "admit_p50_us": p50,
        "admit_p99_us": p99,
        "offers_per_sec": round(len(sfcs) / wall, 1),
        "wall_s": round(wall, 3),
        "check_problems": problems[:4],
    }


def run(offers: int, fleets) -> dict:
    """Sweep fleet sizes over one seeded offer stream; the report."""
    sfcs = make_sfcs(WORKLOAD.with_num_sfcs(offers), rng=DEFAULT_SEED)
    return {
        "benchmark": "scale-fill",
        "seed": DEFAULT_SEED,
        "python": sys.version.split()[0],
        "offers": offers,
        "switch": SCALE_SPEC.to_dict(),
        "rows": [fill(sfcs, n) for n in fleets],
    }


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI guard: 10 000 offers over 4/16/64 switches, offer-rate floor",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="where to write the JSON report (default: BENCH_scale.json at "
             "the repo root; BENCH_scale.smoke.json with --smoke, so a "
             "smoke run never overwrites the committed full-run numbers)",
    )
    args = parser.parse_args(argv)
    if args.out is None:
        args.out = os.path.join(
            os.path.dirname(os.path.abspath(__file__)), "..",
            "BENCH_scale.smoke.json" if args.smoke else "BENCH_scale.json",
        )

    report = run(
        SMOKE_OFFERS if args.smoke else FULL_OFFERS,
        SMOKE_FLEETS if args.smoke else FULL_FLEETS,
    )

    failed = False
    for row in report["rows"]:
        print(
            f"{row['switches']} switches: {row['offered']:,} offered, "
            f"{row['admitted']:,} admitted ({row['tenants_per_switch']:.1f} "
            f"per switch), {row['spillovers']:,} spilled over, last admit at "
            f"offer {row['last_admit_at']:,}, p50/p99 admit "
            f"{row['admit_p50_us']}/{row['admit_p99_us']} us, "
            f"{row['offers_per_sec']:,.0f} offers/s, "
            f"audit {'FAILED' if row['check_problems'] else 'OK'}"
        )
        if row["check_problems"]:
            print(f"FAIL: {row['check_problems']}", file=sys.stderr)
            failed = True
        if row["last_admit_at"] > row["offered"] / 2:
            print(
                f"FAIL: the {row['switches']}-switch fleet still admitted at "
                f"offer {row['last_admit_at']:,} of {row['offered']:,}; the "
                f"sweep no longer reaches saturation",
                file=sys.stderr,
            )
            failed = True
        if args.smoke and row["offers_per_sec"] < SMOKE_OFFERS_PER_SEC_FLOOR:
            print(
                f"FAIL: {row['offers_per_sec']:,.0f} offers/s is below the "
                f"{SMOKE_OFFERS_PER_SEC_FLOOR:,.0f}/s floor",
                file=sys.stderr,
            )
            failed = True

    if failed:
        print("FAIL: scale guard violated", file=sys.stderr)
        return 1

    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"wrote {os.path.abspath(args.out)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
