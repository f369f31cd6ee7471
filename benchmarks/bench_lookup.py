#!/usr/bin/env python
"""Lookup-engine benchmark: indexed fast path vs. reference linear scan.

Builds SFP-shaped tables — ``(tenant_id, pass_id)`` exact prefix, an LPM
destination route, and a small ternary/range residue — at several entry
counts, measures single-table lookup throughput on both engines, and a
whole-pipeline ``process_batch`` rate, then records everything into
``BENCH_lookup.json``.

Run directly (no pytest needed):

    python benchmarks/bench_lookup.py            # full sweep + JSON report
    python benchmarks/bench_lookup.py --smoke    # CI regression guard

``--smoke`` exits non-zero if the indexed path fails to beat the linear
scan on the 10k-entry case — the floor below which the engine would be
pointless.  The full sweep asserts the >= 10x acceptance bar instead.
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

from repro.dataplane.packet import Packet
from repro.telemetry.metrics import Timer
from repro.dataplane.table import (
    MatchActionTable,
    MatchField,
    MatchKind,
    TableEntry,
)
from repro.rng import DEFAULT_SEED, make_rng

KEY = (
    MatchField("tenant_id", MatchKind.EXACT),
    MatchField("pass_id", MatchKind.EXACT),
    MatchField("dst_ip", MatchKind.LPM),
    MatchField("dst_port", MatchKind.RANGE),
)

#: Fraction of entries carrying a range spec (the unindexable residue).
RESIDUE_FRACTION = 0.02


def build_entries(num_entries: int, rng) -> list[TableEntry]:
    """Tenant-sharded rules: every tenant owns a handful of routes per pass,
    exactly the shape §IV's virtualization produces."""
    num_tenants = max(1, num_entries // 8)
    entries = []
    for i in range(num_entries):
        tenant = int(rng.integers(0, num_tenants))
        pass_id = int(rng.integers(1, 5))
        if rng.random() < RESIDUE_FRACTION:
            lo = int(rng.integers(0, 60000))
            match = {"tenant_id": tenant, "dst_port": (lo, lo + 1024)}
        else:
            prefix = int(rng.integers(0, 1 << 32)) & 0xFFFFFF00
            match = {
                "tenant_id": tenant,
                "pass_id": pass_id,
                "dst_ip": (prefix, 24),
            }
        entries.append(
            TableEntry(
                match=match,
                action="permit",
                params={"tag": i},
                priority=int(rng.integers(0, 4)),
            )
        )
    return entries


def build_table(entries: list[TableEntry], indexed: bool) -> MatchActionTable:
    table = MatchActionTable("bench", key=KEY, indexed=indexed)
    table.insert_many(entries)
    return table


def build_packets(num_packets: int, num_entries: int, rng) -> list[Packet]:
    num_tenants = max(1, num_entries // 8)
    return [
        Packet(
            tenant_id=int(rng.integers(0, num_tenants)),
            pass_id=int(rng.integers(1, 5)),
            dst_ip=int(rng.integers(0, 1 << 32)),
            dst_port=int(rng.integers(0, 65536)),
        )
        for _ in range(num_packets)
    ]


def measure_lookups_per_sec(
    table: MatchActionTable, packets: list[Packet], min_time_s: float = 0.25
) -> float:
    """Lookups per second, timed over at least ``min_time_s`` of work."""
    lookup = table.lookup
    done = 0
    timer = Timer()
    while True:
        for p in packets:
            lookup(p)
        done += len(packets)
        elapsed = timer.elapsed_s
        if elapsed >= min_time_s:
            return done / elapsed


def bench_table_sizes(sizes, min_time_s: float = 0.25) -> list[dict]:
    rows = []
    for size in sizes:
        rng = make_rng(DEFAULT_SEED + size)
        entries = build_entries(size, rng)
        packets = build_packets(256, size, rng)
        linear = measure_lookups_per_sec(
            build_table(entries, indexed=False), packets, min_time_s
        )
        indexed = measure_lookups_per_sec(
            build_table(entries, indexed=True), packets, min_time_s
        )
        rows.append(
            {
                "entries": size,
                "linear_lookups_per_sec": round(linear, 1),
                "indexed_lookups_per_sec": round(indexed, 1),
                "speedup": round(indexed / linear, 2),
            }
        )
    return rows


def bench_pipeline_batch(num_packets: int = 2000) -> dict:
    """End-to-end ``process_batch`` packets/sec on the demo pipeline, which
    exercises the batch action-resolution memo plus indexed stage lookups."""
    from repro.experiments.fig4_throughput import build_demo_pipeline
    from repro.traffic.flows import FlowGenerator

    pipeline, _virt = build_demo_pipeline(seed=1)
    gen = FlowGenerator(1)
    flows = gen.flows(64, tenant_id=1)
    batch = gen.packets(flows, num_packets, size_bytes=64)
    with Timer() as timer:
        pipeline.process_batch(batch)
    return {
        "num_packets": num_packets,
        "packets_per_sec": round(num_packets / timer.elapsed_s, 1),
    }


def run(sizes, min_time_s: float, with_pipeline: bool) -> dict:
    report = {
        "benchmark": "lookup-engine",
        "seed": DEFAULT_SEED,
        "python": sys.version.split()[0],
        "table": bench_table_sizes(sizes, min_time_s),
    }
    if with_pipeline:
        report["pipeline_batch"] = bench_pipeline_batch()
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="fast CI guard: fail if indexed <= linear at 10k entries",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="where to write the JSON report (default: BENCH_lookup.json at "
             "the repo root; BENCH_lookup.smoke.json with --smoke, so a "
             "smoke run never overwrites the committed full-run numbers)",
    )
    args = parser.parse_args(argv)
    if args.out is None:
        args.out = os.path.join(
            os.path.dirname(os.path.abspath(__file__)), "..",
            "BENCH_lookup.smoke.json" if args.smoke else "BENCH_lookup.json",
        )

    if args.smoke:
        report = run(sizes=[10_000], min_time_s=0.1, with_pipeline=False)
    else:
        report = run(sizes=[100, 1_000, 10_000], min_time_s=0.3, with_pipeline=True)

    for row in report["table"]:
        print(
            f"{row['entries']:>6} entries: linear "
            f"{row['linear_lookups_per_sec']:>12,.0f}/s   indexed "
            f"{row['indexed_lookups_per_sec']:>12,.0f}/s   "
            f"speedup {row['speedup']:,.1f}x"
        )
    if "pipeline_batch" in report:
        print(
            f"pipeline process_batch: "
            f"{report['pipeline_batch']['packets_per_sec']:,.0f} packets/s"
        )

    big = report["table"][-1]
    if args.smoke:
        if big["speedup"] < 1.0:
            print(
                f"FAIL: indexed path is slower than the linear scan "
                f"({big['speedup']}x) at {big['entries']} entries",
                file=sys.stderr,
            )
            return 1
        print(f"smoke ok: {big['speedup']}x at {big['entries']} entries")
        return 0

    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"wrote {os.path.abspath(args.out)}")
    if big["speedup"] < 10.0:
        print(
            f"WARNING: speedup {big['speedup']}x at {big['entries']} entries "
            f"is below the 10x acceptance bar",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
