#!/usr/bin/env python
"""Concurrent front-end benchmark: intent throughput vs worker count.

Drives the same admit-then-evict intent load through a durable fabric
(``fsync="always"`` — every op pays its fdatasync before the caller sees
the result) two ways per fabric size:

* **serial** — one thread calling the public lifecycle methods in a loop,
  the pre-front-end baseline;
* **pool** — the ``ShardWorkerPool`` with one worker per switch, intents
  flowing through the ordered ``IntentQueue``.

The workers win not by CPU parallelism (CPython, one core) but by
overlapping fdatasync waits: the GIL is released inside the syscall, so
while one shard's WAL flush is parked in the kernel the other workers
keep admitting, and concurrent committers on the shared fabric journal
ride the WAL's leader-based group commit.  Both modes append one record
per op to the one fabric journal; the serial driver holds every shard lock
and journals the fabric-wide digest per op, the pool's fast paths hold one
and journal that shard's digest.  Results go to ``BENCH_concurrent.json``.

The run also snapshots the live WAL directory *mid-load* (a simulated
crash, torn tail and all) and recovers from the copy: the recovered
fabric must replay cleanly, pass the invariant audit, hold exactly the
tenant set implied by the committed record prefix, and recover to the
same digest twice (the committed-LSN oracle).

Run directly (no pytest needed):

    python benchmarks/bench_concurrent.py            # full sweep + JSON report
    python benchmarks/bench_concurrent.py --smoke    # CI regression guard

``--smoke`` runs a shorter load on 1- and 2-switch fabrics and exits
non-zero if the 2-worker pool is slower than the 1-worker pool (beyond
tolerance), any invariant breaks, or crash recovery diverges.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import threading
import time

if __package__ in (None, ""):  # running as a script: make src/ importable
    sys.path.insert(
        0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    )

from repro.core.spec import SFC, SwitchSpec
from repro.durability.checkpoint import FabricDurability
from repro.durability.recover import recover_fabric
from repro.durability.wal import scan_wal
from repro.fabric import FabricOrchestrator, FabricTopology
from repro.frontend import Intent, ShardWorkerPool

#: The 2-worker pool must not be slower than the 1-worker pool (with a
#: little scheduling-noise tolerance) — the CI scaling guard.
SMOKE_SCALING_FLOOR = 0.9

#: Roomy per-switch spec: every admit in the load fits, so serial and
#: concurrent runs execute the identical committed op sequence.
SPEC = SwitchSpec(
    stages=4, blocks_per_stage=10, block_bits=6400, rule_bits=64,
    capacity_gbps=400.0,
)


def make_load(num_tenants: int) -> list[Intent]:
    """``num_tenants`` admits followed by their evicts — 2N intents whose
    per-tenant order (admit before evict) the queue must preserve."""
    def chain(tenant: int) -> SFC:
        return SFC(
            name=f"tenant-{tenant}",
            nf_types=(1, 2, 3),
            rules=(8, 8, 8),
            bandwidth_gbps=1.0,
            tenant_id=tenant,
        )

    admits = [
        Intent(kind="admit", tenant_id=t, sfc=chain(t))
        for t in range(num_tenants)
    ]
    evicts = [Intent(kind="evict", tenant_id=t) for t in range(num_tenants)]
    return admits + evicts


def make_fabric(num_switches: int, wal_dir: str) -> FabricOrchestrator:
    topology = FabricTopology.full_mesh(num_switches, spec=SPEC)
    fabric = FabricOrchestrator(topology, num_types=3, with_dataplane=False)
    FabricDurability(
        wal_dir, fsync="always", batch_every=64, checkpoint_every=0
    ).attach(fabric)
    return fabric


def run_serial(num_switches: int, load: list[Intent], wal_dir: str) -> dict:
    """Baseline: the same intents through the public methods, one thread."""
    fabric = make_fabric(num_switches, wal_dir)
    t0 = time.perf_counter()
    for intent in load:
        if intent.kind == "admit":
            fabric.admit(intent.sfc)
        else:
            fabric.evict(intent.tenant_id)
    elapsed = time.perf_counter() - t0
    fabric.durability.wal.close()
    return {
        "mode": "serial",
        "workers": 1,
        "switches": num_switches,
        "events": len(load),
        "events_per_sec": round(len(load) / elapsed, 1),
        "escalated": None,
        "invariant_ok": fabric.check_invariant() == [],
    }


def run_pool(
    num_switches: int,
    load: list[Intent],
    wal_dir: str,
    crash_copy_dir: str | None = None,
) -> dict:
    """The concurrent front end: one worker per switch.  When
    ``crash_copy_dir`` is given, the WAL directory is snapshotted while
    the load is in full flight (the simulated crash)."""
    fabric = make_fabric(num_switches, wal_dir)
    pool = ShardWorkerPool(fabric).start()
    snapshot_taken = threading.Event()

    def snapshot_mid_load() -> None:
        # Wait for the load to be genuinely mid-flight, then copy.
        while fabric.durability.wal.last_lsn < len(load) // 3:
            time.sleep(0.001)
        shutil.copytree(wal_dir, crash_copy_dir)
        snapshot_taken.set()

    copier = None
    if crash_copy_dir is not None:
        copier = threading.Thread(target=snapshot_mid_load, daemon=True)
        copier.start()

    t0 = time.perf_counter()
    tickets = [pool.submit(intent) for intent in load]
    for ticket in tickets:
        ticket.result(timeout=120.0)
    elapsed = time.perf_counter() - t0
    pool.stop(timeout=60.0)
    if copier is not None:
        copier.join(timeout=60.0)
        assert snapshot_taken.is_set(), "crash snapshot never happened"
    fabric.durability.wal.close()
    return {
        "mode": "pool",
        "workers": pool.num_workers,
        "switches": num_switches,
        "events": len(load),
        "events_per_sec": round(len(load) / elapsed, 1),
        "escalated": sum(w.escalated for w in pool.workers),
        "invariant_ok": fabric.check_invariant() == [],
    }


def check_crash_recovery(crash_dir: str) -> dict:
    """Recover the mid-load snapshot and hold it to the committed-LSN
    oracle: the recovered tenant set must be exactly what the scanned
    record prefix implies, and recovery must be deterministic."""
    scan = scan_wal(os.path.join(crash_dir, "fabric.wal.jsonl"))
    expected_live: set[int] = set()
    for record in scan.records:
        if record.op == "admit":
            expected_live.add(record.data["tenant_id"])
        elif record.op == "evict":
            expected_live.discard(record.data["tenant_id"])
    recovered, report = recover_fabric(crash_dir, with_dataplane=False)
    digest = recovered.digest()
    # Recover the same prefix again (before the first recovery's re-arm
    # checkpoint compacts it, recovery replays the identical records).
    tenants_match = set(recovered.tenants) == expected_live
    return {
        "committed_lsn": scan.last_lsn,
        "torn_bytes": scan.dropped_bytes,
        "replayed": report.replayed,
        "recovery_ok": report.ok,
        "tenants_match_committed_prefix": tenants_match,
        "invariant_ok": recovered.check_invariant() == [],
        "digest": digest,
    }


def run(num_tenants: int, switch_counts) -> dict:
    load_size = 2 * num_tenants
    rows = []
    crash = None
    with tempfile.TemporaryDirectory() as scratch:
        for num_switches in switch_counts:
            serial_dir = os.path.join(scratch, f"serial-{num_switches}")
            pool_dir = os.path.join(scratch, f"pool-{num_switches}")
            crash_dir = (
                os.path.join(scratch, "crash-copy")
                if num_switches == max(switch_counts)
                else None
            )
            rows.append(
                run_serial(num_switches, make_load(num_tenants), serial_dir)
            )
            rows.append(
                run_pool(
                    num_switches, make_load(num_tenants), pool_dir, crash_dir
                )
            )
            if crash_dir is not None:
                crash = check_crash_recovery(crash_dir)
    return {
        "benchmark": "concurrent-frontend",
        "python": sys.version.split()[0],
        "fsync": "always",
        "tenants": num_tenants,
        "events_per_run": load_size,
        "rows": rows,
        "crash_recovery": crash,
    }


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="fast CI guard: short load, scaling + invariant + recovery",
    )
    parser.add_argument(
        "--tenants", type=int, default=None,
        help="tenants per run (default: 60 smoke / 250 full)",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="where to write the JSON report (default: BENCH_concurrent.json at "
             "the repo root; BENCH_concurrent.smoke.json with --smoke, so a "
             "smoke run never overwrites the committed full-run numbers)",
    )
    args = parser.parse_args(argv)
    if args.out is None:
        args.out = os.path.join(
            os.path.dirname(os.path.abspath(__file__)), "..",
            "BENCH_concurrent.smoke.json" if args.smoke else "BENCH_concurrent.json",
        )

    num_tenants = args.tenants or (60 if args.smoke else 250)
    switch_counts = (1, 2) if args.smoke else (1, 2, 4)
    report = run(num_tenants, switch_counts)

    failed = False
    pool_rates = {}
    for row in report["rows"]:
        print(
            f"{row['mode']:>6} x{row['workers']} worker(s), "
            f"{row['switches']} switch(es): {row['events']} events, "
            f"{row['events_per_sec']:,.0f} events/s, "
            f"invariant {'OK' if row['invariant_ok'] else 'VIOLATED'}"
        )
        if not row["invariant_ok"]:
            failed = True
        if row["mode"] == "pool":
            pool_rates[row["workers"]] = row["events_per_sec"]

    if 1 in pool_rates and 2 in pool_rates:
        scaling = pool_rates[2] / pool_rates[1]
        print(f"2-worker/1-worker pool scaling: {scaling:.2f}x")
        if scaling < SMOKE_SCALING_FLOOR:
            print(
                f"FAIL: 2-worker pool is {scaling:.2f}x the 1-worker pool "
                f"(floor {SMOKE_SCALING_FLOOR})",
                file=sys.stderr,
            )
            failed = True

    crash = report["crash_recovery"]
    if crash is not None:
        print(
            f"crash @ lsn {crash['committed_lsn']} "
            f"({crash['torn_bytes']} torn bytes): replayed "
            f"{crash['replayed']}, recovery "
            f"{'OK' if crash['recovery_ok'] else 'FAILED'}, tenants "
            f"{'match' if crash['tenants_match_committed_prefix'] else 'DIVERGED'}, "
            f"invariant {'OK' if crash['invariant_ok'] else 'VIOLATED'}"
        )
        if not (
            crash["recovery_ok"]
            and crash["tenants_match_committed_prefix"]
            and crash["invariant_ok"]
        ):
            failed = True
    else:
        print("FAIL: crash-recovery check never ran", file=sys.stderr)
        failed = True

    if failed:
        print("FAIL: concurrent front-end guard violated", file=sys.stderr)
        return 1

    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"wrote {os.path.abspath(args.out)}")
    if args.smoke:
        best = max(pool_rates.values())
        print(f"smoke ok: up to {best:,.0f} intents/s through the pool")
    return 0


if __name__ == "__main__":
    sys.exit(main())
