#!/usr/bin/env python
"""Fabric churn benchmark: event throughput and spillover rate vs shard count.

Replays the same seeded tenant-churn stream (Poisson arrivals, exponential
lifetimes, mid-lifetime modifications) over multi-switch fabrics of
increasing shard count, through the full orchestration stack — pluggable
tenant->switch routing, per-switch admission fallback, cross-switch chain
stitching, and per-shard two-phase data-plane installs — and records
events/sec, spillover rate, and stitch counts per shard count into
``BENCH_fabric.json``.

Run directly (no pytest needed):

    python benchmarks/bench_fabric_churn.py            # full sweep + JSON report
    python benchmarks/bench_fabric_churn.py --smoke    # CI regression guard

``--smoke`` replays a shorter stream on a 4-switch fabric, checks the fabric
invariant — every shard's incremental accounting and every link's load must
match a from-scratch recomputation bit for bit — runs a drain/failover pass
with end-to-end forwarding probes, and exits non-zero on any violation or a
throughput collapse.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

if __package__ in (None, ""):  # running as a script: make src/ importable
    sys.path.insert(
        0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    )

from repro.controller import ChurnConfig, ChurnEngine, synthesize_churn
from repro.core.spec import SwitchSpec
from repro.fabric import (
    FabricOrchestrator,
    FabricTopology,
    make_partitioner,
)
from repro.rng import DEFAULT_SEED
from repro.traffic.workload import WorkloadConfig

#: Conservative floor for the CI guard (the 4-shard pure-python fabric
#: clears thousands of events/sec; below this something regressed badly).
SMOKE_EVENTS_PER_SEC_FLOOR = 50.0

WORKLOAD = WorkloadConfig(
    num_sfcs=0, num_types=6, avg_chain_length=3, chain_length_spread=2,
    rules_min=1, rules_max=4, mean_bandwidth_gbps=1.0, max_bandwidth_gbps=4.0,
)

#: Deliberately tight per-shard switch: the live tenant set oversubscribes a
#: small fabric's backplane, so adding shards visibly trades rejections for
#: spillovers — the curve this benchmark exists to record.
SHARD_SPEC = SwitchSpec(
    stages=4, blocks_per_stage=8, block_bits=6400, rule_bits=64,
    capacity_gbps=40.0,
)


def churn_config(duration_s: float) -> ChurnConfig:
    """The benchmark's churn mix at a given stream horizon."""
    return ChurnConfig(
        duration_s=duration_s,
        arrival_rate_per_s=12.0,
        mean_lifetime_s=6.0,
        modify_fraction=0.25,
        workload=WORKLOAD,
    )


def run_one(
    events, num_switches: int, partitioner: str, with_dataplane: bool
) -> dict:
    """Replay the stream over one fabric size and collect its row."""
    topology = FabricTopology.full_mesh(num_switches, spec=SHARD_SPEC)
    fabric = FabricOrchestrator(
        topology,
        num_types=WORKLOAD.num_types,
        partitioner=make_partitioner(partitioner),
        with_dataplane=with_dataplane,
    )
    report = ChurnEngine(fabric).replay(events)
    summary = report.summary()
    counters = fabric.metrics_snapshot()["counters"]
    admitted = int(summary["admitted"])
    spillovers = counters.get("spillovers", 0)
    return {
        "switches": num_switches,
        "events": int(summary["events"]),
        "admitted": admitted,
        "rejected": int(summary["rejected"]),
        "events_per_sec": round(summary["events_per_sec"], 1),
        "admit_p50_ms": (
            None if summary["admit_p50_ms"] is None
            else round(summary["admit_p50_ms"], 3)
        ),
        "admit_p99_ms": (
            None if summary["admit_p99_ms"] is None
            else round(summary["admit_p99_ms"], 3)
        ),
        "spillovers": spillovers,
        "spillover_rate": round(spillovers / admitted, 4) if admitted else 0.0,
        "stitched": counters.get("stitched", 0),
        "live_tenants": len(fabric.tenants),
        "invariant_ok": fabric.check_invariant() == [],
        "_fabric": fabric,  # stripped before serialization
    }


def drain_check(fabric: FabricOrchestrator) -> dict:
    """Drain the busiest switch and verify every re-homed chain forwards."""
    victim = max(fabric.shards, key=lambda n: len(fabric.shards[n].tenants))
    report = fabric.drain(victim)
    forwarding = sum(1 for t in report.rehomed if fabric.probe_tenant(t))
    shard = fabric.shards[victim]
    return {
        "switch": victim,
        "rehomed": report.num_rehomed,
        "evicted": report.num_evicted,
        "probes_ok": forwarding == report.num_rehomed,
        "drained_shard_empty": (
            not shard.tenants and int(shard.state.entries.sum()) == 0
        ),
        "invariant_ok": fabric.check_invariant() == [],
    }


def run(duration_s: float, shard_counts, partitioner: str,
        with_dataplane: bool) -> dict:
    """Sweep shard counts over one seeded stream and assemble the report."""
    events = synthesize_churn(churn_config(duration_s), rng=DEFAULT_SEED)
    rows = []
    drain = None
    for num_switches in shard_counts:
        row = run_one(events, num_switches, partitioner, with_dataplane)
        fabric = row.pop("_fabric")
        if with_dataplane and num_switches == max(shard_counts):
            drain = drain_check(fabric)
        rows.append(row)
    return {
        "benchmark": "fabric-churn",
        "seed": DEFAULT_SEED,
        "python": sys.version.split()[0],
        "duration_s": duration_s,
        "partitioner": partitioner,
        "with_dataplane": with_dataplane,
        "rows": rows,
        "drain": drain,
    }


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="fast CI guard: shorter stream, invariant + drain + throughput floor",
    )
    parser.add_argument(
        "--partitioner", choices=("hash", "least-backplane"), default="hash",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="where to write the JSON report (default: BENCH_fabric.json at "
             "the repo root; BENCH_fabric.smoke.json with --smoke, so a "
             "smoke run never overwrites the committed full-run numbers)",
    )
    args = parser.parse_args(argv)
    if args.out is None:
        args.out = os.path.join(
            os.path.dirname(os.path.abspath(__file__)), "..",
            "BENCH_fabric.smoke.json" if args.smoke else "BENCH_fabric.json",
        )

    duration = 15.0 if args.smoke else 45.0
    shard_counts = (2, 4) if args.smoke else (1, 2, 4, 8)
    report = run(
        duration_s=duration,
        shard_counts=shard_counts,
        partitioner=args.partitioner,
        with_dataplane=True,
    )

    failed = False
    for row in report["rows"]:
        print(
            f"{row['switches']} switches: {row['events']} events, "
            f"{row['events_per_sec']:,.0f} events/s, "
            f"{row['admitted']} admitted / {row['rejected']} rejected, "
            f"spillover rate {row['spillover_rate']:.2%}, "
            f"{row['stitched']} stitched, "
            f"invariant {'OK' if row['invariant_ok'] else 'VIOLATED'}"
        )
        if not row["invariant_ok"]:
            failed = True
        if args.smoke:
            if row["events"] < 100:
                print(f"FAIL: smoke stream too short ({row['events']} events)",
                      file=sys.stderr)
                failed = True
            if row["events_per_sec"] < SMOKE_EVENTS_PER_SEC_FLOOR:
                print(
                    f"FAIL: {row['events_per_sec']:.0f} events/s is below the "
                    f"{SMOKE_EVENTS_PER_SEC_FLOOR:.0f}/s floor",
                    file=sys.stderr,
                )
                failed = True
    drain = report["drain"]
    if drain is not None:
        print(
            f"drain {drain['switch']}: {drain['rehomed']} re-homed / "
            f"{drain['evicted']} evicted, probes "
            f"{'OK' if drain['probes_ok'] else 'FAILED'}, shard "
            f"{'empty' if drain['drained_shard_empty'] else 'NOT EMPTY'}, "
            f"invariant {'OK' if drain['invariant_ok'] else 'VIOLATED'}"
        )
        if not (drain["probes_ok"] and drain["drained_shard_empty"]
                and drain["invariant_ok"]):
            failed = True
    if failed:
        print("FAIL: fabric churn guard violated", file=sys.stderr)
        return 1

    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"wrote {os.path.abspath(args.out)}")
    if args.smoke:
        best = max(r["events_per_sec"] for r in report["rows"])
        print(f"smoke ok: up to {best:,.0f} events/s across "
              f"{len(report['rows'])} fabric sizes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
