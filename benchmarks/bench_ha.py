#!/usr/bin/env python
"""High-availability benchmark: replication lag, failover time, lost acks.

Three phases, all driven through :class:`repro.ha.cluster.HaCluster` (one
primary + one hot standby + one lease in this process):

1. **Replication lag** — replay the seeded churn stream pumping the WAL
   shipper on a fixed cadence, and measure the standby's lag (in records)
   just before each pump, the lag after (must be zero — the in-process
   sink is synchronous), and the pump cost itself.
2. **Failover sweep** — the kill-primary drill at every seeded crash site
   across the durability boundaries (WAL append/fsync windows, and in the
   full run the checkpoint/compaction rename windows too), rotating the
   disk-mutilation mode (keep / lose-unsynced / tear / corrupt).  Each
   point crashes the primary mid-stream, waits out the lease, fails over,
   and checks the promoted fabric (a) kept **every acknowledged op** and
   (b) is digest-identical to the committed-LSN oracle — the per-LSN
   digest map an uninterrupted run of the same stream journals.
3. **Failover time** — the kill→promoted wall clock of every sweep point
   (dominated by the lease TTL, by design: the fence must expire before
   the standby may serve).

Results land in ``BENCH_ha.json``.  Run directly (no pytest needed):

    python benchmarks/bench_ha.py            # full run + JSON report
    python benchmarks/bench_ha.py --smoke    # CI regression guard

``--smoke`` sweeps the four WAL sites only (16 points) and fails if any
point loses an acknowledged op, diverges from the oracle, or reports
invariant problems — the same zero-lost-acks bar as the full run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import tempfile
import time

if __package__ in (None, ""):  # running as a script: make src/ importable
    sys.path.insert(
        0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    )

from repro.controller import ChurnConfig, ChurnEngine, synthesize_churn
from repro.core.spec import SwitchSpec
from repro.durability import (
    DISK_MODES,
    DURABILITY_SITES,
    WAL_SITES,
    CrashError,
    FabricDurability,
    FaultInjector,
    crash_sites,
)
from repro.fabric import FabricOrchestrator, FabricTopology, make_partitioner
from repro.ha import HaCluster
from repro.rng import DEFAULT_SEED
from repro.traffic.workload import WorkloadConfig

#: Lease TTL for the sweep: small enough to keep 32 failovers quick, large
#: enough that renewal racing never fences a healthy primary mid-run.
SWEEP_TTL_S = 0.15

#: Steady-state phase ships every PUMP_EVERY ops (so the lag-before-pump
#: histogram actually has something to show).
PUMP_EVERY = 8

SPEC = SwitchSpec(
    stages=3, blocks_per_stage=4, block_bits=6400, rule_bits=64,
    capacity_gbps=10.0,
)

WORKLOAD = WorkloadConfig(
    num_sfcs=0, num_types=6, avg_chain_length=3, chain_length_spread=2,
    rules_min=1, rules_max=4, mean_bandwidth_gbps=1.0, max_bandwidth_gbps=4.0,
)


def make_fabric() -> FabricOrchestrator:
    topology = FabricTopology.full_mesh(3, spec=SPEC, link_capacity_gbps=40.0)
    return FabricOrchestrator(
        topology,
        num_types=WORKLOAD.num_types,
        partitioner=make_partitioner("hash"),
        with_dataplane=False,
    )


def churn_events(duration_s: float):
    config = ChurnConfig(
        duration_s=duration_s,
        arrival_rate_per_s=10.0,
        mean_lifetime_s=4.0,
        modify_fraction=0.25,
        workload=WORKLOAD,
    )
    return synthesize_churn(config, rng=DEFAULT_SEED)


def build_oracle(events) -> dict[int, str]:
    """The committed-LSN digest oracle: replay the stream uninterrupted
    (fsync=always, no checkpoints) and map every LSN to the post-op fabric
    digest its journaled record carries."""
    with tempfile.TemporaryDirectory() as directory:
        fabric = make_fabric()
        oracle = {0: fabric.digest()}
        durability = FabricDurability(
            directory, fsync="always", checkpoint_every=0
        ).attach(fabric)
        engine = ChurnEngine(fabric)
        for event in events:
            engine.apply(event)
        for record in durability.wal.records():
            oracle[record.lsn] = record.data["digest"]
        durability.close()
    return oracle


# ----------------------------------------------------------------------
# Phase 1: steady-state replication lag
# ----------------------------------------------------------------------
def measure_replication(events) -> dict:
    with tempfile.TemporaryDirectory() as root:
        cluster = HaCluster(root, make_fabric, ttl_s=30.0, checkpoint_every=32)
        cluster.start()
        engine = ChurnEngine(cluster.fabric)
        lags_before: list[int] = []
        lags_after: list[int] = []
        pump_ms: list[float] = []
        for index, event in enumerate(events):
            engine.apply(event)
            if (index + 1) % PUMP_EVERY == 0:
                lags_before.append(
                    cluster.durability.wal.last_lsn
                    - cluster.standby.applied_lsn
                )
                t0 = time.perf_counter()
                cluster.pump()
                pump_ms.append((time.perf_counter() - t0) * 1e3)
                lags_after.append(
                    cluster.durability.wal.last_lsn
                    - cluster.standby.applied_lsn
                )
        cluster.pump()
        final_lag = (
            cluster.durability.wal.last_lsn - cluster.standby.applied_lsn
        )
        digest_ok = (
            cluster.standby.fabric.digest() == cluster.fabric.digest()
        )
        snapshot = cluster.standby.metrics.snapshot()
        heartbeat = snapshot["histograms"].get("ha.heartbeat_delay_s", {})
        cluster.close()
    return {
        "events": len(events),
        "pump_every": PUMP_EVERY,
        "lag_before_pump_records": {
            "mean": round(statistics.mean(lags_before), 2),
            "max": max(lags_before),
        },
        "lag_after_pump_records": {"max": max(lags_after)},
        "final_lag_records": final_lag,
        "pump_ms": {
            "p50": round(statistics.median(pump_ms), 3),
            "max": round(max(pump_ms), 3),
        },
        "heartbeat_delay_p50_s": heartbeat.get("p50"),
        "standby_digest_ok": digest_ok,
        "checkpoints_shipped": cluster.standby.checkpoints_restored,
    }


# ----------------------------------------------------------------------
# Phase 2+3: the kill-primary failover sweep
# ----------------------------------------------------------------------
def failover_sweep(events, oracle, points) -> list[dict]:
    results = []
    for index, point in enumerate(points):
        mode = DISK_MODES[index % len(DISK_MODES)]
        with tempfile.TemporaryDirectory() as root:
            injector = FaultInjector(point)
            cluster = HaCluster(
                root, make_fabric, ttl_s=SWEEP_TTL_S,
                checkpoint_every=16, fault_hook=injector,
            )
            cluster.start()
            engine = ChurnEngine(cluster.fabric)
            acked = 0
            try:
                for event in events:
                    engine.apply(event)
                    # The op returned: its records are durable (fsync=
                    # always) — this is the acknowledgment watermark the
                    # promoted standby must reach.
                    acked = cluster.durability.wal.last_lsn
                    cluster.pump()
            except CrashError:
                pass
            t_kill = time.perf_counter()
            cluster.kill_primary(mode)
            report = cluster.failover(max_wait_s=10.0, poll_s=0.005)
            failover_ms = (time.perf_counter() - t_kill) * 1e3
            expected = oracle.get(report.applied_lsn)
            lost = max(0, acked - report.applied_lsn)
            ok = bool(
                report.ok
                and lost == 0
                and expected is not None
                and report.digest == expected
            )
            cluster.close()
            results.append({
                "site": point.site,
                "ordinal": point.at,
                "crashed": injector.fired,
                "disk_mode": mode,
                "acked_lsn": acked,
                "promoted_lsn": report.applied_lsn,
                "lost_acks": lost,
                "epoch": report.epoch,
                "digest_ok": bool(expected is not None
                                  and report.digest == expected),
                "failover_ms": round(failover_ms, 1),
                "ok": ok,
                "problems": report.problems,
            })
    return results


def run(smoke: bool) -> dict:
    events = churn_events(8.0 if smoke else 15.0)
    oracle = build_oracle(events)
    replication = measure_replication(events)
    sites = WAL_SITES if smoke else DURABILITY_SITES
    # One journal at fsync=always: each WAL site is visited once per
    # committed op, so a WAL ordinal is an LSN.  Half the event count is
    # 60-85% of the stream's committed ops: every site gets its first
    # visit, a late one, and seeded middles; points past a site's actual
    # visit count (the rename windows see a handful) crash at stream end
    # instead (still a valid kill+failover drill).
    points = crash_sites(DEFAULT_SEED, max(len(events) // 2, 2), sites=sites)
    sweep = failover_sweep(events, oracle, points)
    failover_times = [row["failover_ms"] for row in sweep]
    return {
        "benchmark": "ha",
        "seed": DEFAULT_SEED,
        "python": sys.version.split()[0],
        "smoke": smoke,
        "lease_ttl_s": SWEEP_TTL_S,
        "replication": replication,
        "sweep_points": len(sweep),
        "crashed_points": sum(1 for row in sweep if row["crashed"]),
        "lost_acks_total": sum(row["lost_acks"] for row in sweep),
        "failover_ms": {
            "p50": round(statistics.median(failover_times), 1),
            "max": round(max(failover_times), 1),
        },
        "sweep": sweep,
    }


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="fast CI guard: WAL-site sweep only (16 points)",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="where to write the JSON report (default: BENCH_ha.json at "
             "the repo root; BENCH_ha.smoke.json with --smoke, so a "
             "smoke run never overwrites the committed full-run numbers)",
    )
    args = parser.parse_args(argv)
    if args.out is None:
        args.out = os.path.join(
            os.path.dirname(os.path.abspath(__file__)), "..",
            "BENCH_ha.smoke.json" if args.smoke else "BENCH_ha.json",
        )

    report = run(smoke=args.smoke)

    repl = report["replication"]
    print(
        f"replication: lag before pump mean "
        f"{repl['lag_before_pump_records']['mean']} / max "
        f"{repl['lag_before_pump_records']['max']} records "
        f"(pump every {repl['pump_every']} ops), after pump "
        f"{repl['lag_after_pump_records']['max']}, pump p50 "
        f"{repl['pump_ms']['p50']} ms, "
        f"{repl['checkpoints_shipped']} checkpoints shipped"
    )
    print(
        f"failover sweep: {report['sweep_points']} points "
        f"({report['crashed_points']} crashed mid-stream), "
        f"failover p50 {report['failover_ms']['p50']} ms / max "
        f"{report['failover_ms']['max']} ms (lease ttl "
        f"{report['lease_ttl_s'] * 1e3:.0f} ms), "
        f"{report['lost_acks_total']} acknowledged ops lost"
    )
    bad = [row for row in report["sweep"] if not row["ok"]]
    for row in bad[:8]:
        print(
            f"  FAILED {row['site']}@{row['ordinal']} "
            f"({row['disk_mode']}): acked {row['acked_lsn']} promoted "
            f"{row['promoted_lsn']} lost {row['lost_acks']} "
            f"digest_ok={row['digest_ok']} problems={row['problems']}"
        )

    failures = []
    if not repl["standby_digest_ok"]:
        failures.append("steady-state standby diverged from the primary")
    if repl["lag_after_pump_records"]["max"] != 0:
        failures.append("standby lagged after a synchronous pump")
    if report["lost_acks_total"]:
        failures.append(
            f"{report['lost_acks_total']} acknowledged ops lost across "
            f"the sweep (must be zero)"
        )
    if bad:
        failures.append(
            f"{len(bad)}/{report['sweep_points']} sweep points failed "
            f"(divergence or invariant problems)"
        )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if failures:
        return 1

    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"wrote {os.path.abspath(args.out)}")
    if args.smoke:
        print(
            f"smoke ok: {report['sweep_points']} kill-primary points, "
            f"zero lost acks, promoted digests oracle-identical"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
