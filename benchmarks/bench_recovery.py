#!/usr/bin/env python
"""Durability benchmark: WAL append overhead and recovery time vs log length.

Replays the seeded controller-churn stream with a WAL at each fsync policy
(``off`` / ``batch`` / ``always``) and measures the journaling tax each
policy charges.  The overhead is measured *in situ*: the time spent inside
``commit_op`` (serialize + CRC + append + fsync) is accumulated during the
run and compared against the run's remaining (pure controller) time, so
both sides of the ratio see the same host load — wall-clock comparisons of
separate runs proved hopelessly noisy on shared machines.  Then the
controller is rebuilt from its durability directory at several log lengths
to show how recovery time scales with the number of replayed records.
Results land in ``BENCH_recovery.json``.

Run directly (no pytest needed):

    python benchmarks/bench_recovery.py            # full run + JSON report
    python benchmarks/bench_recovery.py --smoke    # CI regression guard

``--smoke`` replays a shorter stream and fails if the batched-fsync WAL
costs more than 30% on top of the bare controller work, if the journaled
run's final state diverges from the bare run's (the WAL must be
semantically invisible), or if recovery does not land digest-identical to
the state it is recovering.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time

if __package__ in (None, ""):  # running as a script: make src/ importable
    sys.path.insert(
        0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    )

from repro.controller import ChurnConfig, ChurnEngine, SfcController, synthesize_churn
from repro.durability import ControllerDurability, recover_controller
from repro.rng import DEFAULT_SEED
from repro.traffic.workload import WorkloadConfig, make_instance

#: The CI guard's ceiling on batched-WAL throughput overhead.  It was 10 %
#: while the controller re-summed its backplane float after every op; with
#: that pass gone the work under the journal is ~3x cheaper, so the same
#: ~30 us of journaling per op reads as ~20 % (measured: 9.3 % of 359 us
#: before, 20 % of 140 us after).  The ceiling follows the denominator.
SMOKE_MAX_BATCH_OVERHEAD_PCT = 30.0

WORKLOAD = WorkloadConfig(
    num_sfcs=0, num_types=6, avg_chain_length=3, chain_length_spread=2,
    rules_min=1, rules_max=4, mean_bandwidth_gbps=1.0, max_bandwidth_gbps=4.0,
)


def churn_config(duration_s: float) -> ChurnConfig:
    return ChurnConfig(
        duration_s=duration_s,
        arrival_rate_per_s=12.0,
        mean_lifetime_s=6.0,
        modify_fraction=0.25,
        workload=WORKLOAD,
    )


class _TimedJournal:
    """Duck-typed ``commit_op`` shim that accumulates time spent journaling
    (serialize + CRC + append + fsync), so one run yields both sides of the
    overhead ratio under identical host load."""

    def __init__(self, inner: ControllerDurability) -> None:
        self.inner = inner
        self.journal_s = 0.0

    def commit_op(self, controller, op, data):
        t0 = time.perf_counter()
        record = self.inner.commit_op(controller, op, data)
        self.journal_s += time.perf_counter() - t0
        return record


def churn_once(events, instance, directory=None, fsync="batch"):
    """Replay ``events`` once; returns
    ``(wall_s, journal_s, digest, committed ops)``.

    With ``directory`` set, a :class:`ControllerDurability` journals every
    committed op there (any previous run's files are cleared first) and
    ``journal_s`` is the time spent inside the journaling path.
    """
    controller = SfcController(instance, with_dataplane=True)
    durability = None
    timer = None
    if directory is not None:
        for name in os.listdir(directory):
            path = os.path.join(directory, name)
            if os.path.isfile(path):
                os.unlink(path)
        durability = ControllerDurability(
            directory, fsync=fsync, checkpoint_every=0
        )
        durability.attach(controller)
        timer = _TimedJournal(durability)
        controller.durability = timer
    t0 = time.perf_counter()
    ChurnEngine(controller).replay(events)
    wall_s = time.perf_counter() - t0
    committed = 0
    journal_s = 0.0
    if durability is not None:
        committed = durability.wal.last_lsn
        journal_s = timer.journal_s
        durability.close()
    return wall_s, journal_s, controller.state.digest(), committed


def measure_recovery(events, instance, log_lengths):
    """Journal the stream with fsync=batch, stopping at each target log
    length, and time a recovery from each resulting directory."""
    points = []
    for target in log_lengths:
        with tempfile.TemporaryDirectory() as directory:
            controller = SfcController(instance, with_dataplane=True)
            durability = ControllerDurability(
                directory, fsync="batch", checkpoint_every=0
            )
            durability.attach(controller)
            engine = ChurnEngine(controller)
            for event in events:
                engine.apply(event)
                if durability.wal.last_lsn >= target:
                    break
            live_digest = controller.state.digest()
            committed = durability.wal.last_lsn
            durability.close()

            t0 = time.perf_counter()
            recovered, report = recover_controller(directory)
            wall_ms = (time.perf_counter() - t0) * 1e3
            points.append({
                "log_records": committed,
                "replayed": report.replayed,
                "recover_ms": round(wall_ms, 2),
                "ok": bool(
                    report.ok and recovered.state.digest() == live_digest
                ),
            })
    return points


def run(duration_s: float, rounds: int = 5) -> dict:
    config = churn_config(duration_s)
    events = synthesize_churn(config, rng=DEFAULT_SEED)
    instance = make_instance(config.workload, max_recirculations=2, rng=DEFAULT_SEED)

    # One untimed replay to warm caches, one bare run for the baseline
    # throughput number, then ``rounds`` journaled runs per policy.  Each
    # journaled run measures its own journaling time in situ; the overhead
    # per policy is the minimum journal/controller ratio across rounds (the
    # round least contaminated by host noise).
    churn_once(events, instance)
    bare_wall, _, bare_digest, _ = churn_once(events, instance)
    ratio = {name: float("inf") for name in ("off", "batch", "always")}
    best = {name: float("inf") for name in ("off", "batch", "always")}
    digests = {}
    committed = 0
    policies = {}
    with tempfile.TemporaryDirectory() as directory:
        for _ in range(rounds):
            for fsync in ("off", "batch", "always"):
                wall, journal, digests[fsync], committed = churn_once(
                    events, instance, directory=directory, fsync=fsync
                )
                best[fsync] = min(best[fsync], wall)
                ratio[fsync] = min(ratio[fsync], journal / (wall - journal))
        # One final batch run leaves its WAL in the directory for the
        # recovery probe (the measurement loop ended on fsync=always).
        _, _, batch_digest, committed = churn_once(
            events, instance, directory=directory, fsync="batch"
        )
        batch_digest_ok = batch_digest == bare_digest
        recovered, report = recover_controller(directory)
        recovered_ok = bool(
            report.ok and recovered.state.digest() == batch_digest
        )
        for fsync in ("off", "batch", "always"):
            policies[fsync] = {
                "events_per_sec": round(len(events) / best[fsync], 1),
                "overhead_pct": round(100.0 * ratio[fsync], 2),
                "committed_ops": committed,
                "digest_ok": digests[fsync] == bare_digest,
            }
        policies["batch"]["recover_ms"] = round(report.wall_s * 1e3, 2)
        policies["batch"]["recovered_ok"] = recovered_ok
    base_eps = len(events) / bare_wall

    max_log = max(policies["batch"]["committed_ops"], 1)
    lengths = sorted({max(1, max_log // 8), max(1, max_log // 3), max_log})
    recovery_curve = measure_recovery(events, instance, lengths)

    return {
        "benchmark": "recovery",
        "seed": DEFAULT_SEED,
        "python": sys.version.split()[0],
        "duration_s": duration_s,
        "events": len(events),
        "baseline_events_per_sec": round(base_eps, 1),
        "policies": policies,
        "recovery_vs_log_length": recovery_curve,
        "batch_digest_ok": batch_digest_ok,
        "recovered_ok": recovered_ok,
    }


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="fast CI guard: shorter stream, batch-overhead + digest checks",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="where to write the JSON report (default: BENCH_recovery.json at "
             "the repo root; BENCH_recovery.smoke.json with --smoke, so a "
             "smoke run never overwrites the committed full-run numbers)",
    )
    args = parser.parse_args(argv)
    if args.out is None:
        args.out = os.path.join(
            os.path.dirname(os.path.abspath(__file__)), "..",
            "BENCH_recovery.smoke.json" if args.smoke else "BENCH_recovery.json",
        )

    duration = 15.0 if args.smoke else 45.0
    report = run(duration_s=duration)

    print(f"baseline (no WAL): {report['baseline_events_per_sec']:,.0f} events/s")
    for fsync, row in report["policies"].items():
        print(
            f"  fsync={fsync:<6} {row['events_per_sec']:>8,.0f} events/s "
            f"({row['overhead_pct']:+.1f}% overhead, "
            f"{row['committed_ops']} ops journaled)"
        )
    for point in report["recovery_vs_log_length"]:
        print(
            f"  recover {point['log_records']:>4} records: "
            f"{point['recover_ms']:.1f} ms ({'ok' if point['ok'] else 'DIVERGED'})"
        )

    failures = []
    if not report["batch_digest_ok"]:
        failures.append("journaled run diverged from the bare run "
                        "(the WAL must be semantically invisible)")
    if not report["recovered_ok"]:
        failures.append("recovery did not land digest-identical")
    if any(not point["ok"] for point in report["recovery_vs_log_length"]):
        failures.append("a recovery point diverged or reported problems")
    if args.smoke:
        overhead = report["policies"]["batch"]["overhead_pct"]
        if overhead > SMOKE_MAX_BATCH_OVERHEAD_PCT:
            failures.append(
                f"batched-WAL overhead {overhead:.1f}% exceeds the "
                f"{SMOKE_MAX_BATCH_OVERHEAD_PCT:.0f}% ceiling"
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
            f"smoke ok: batch fsync costs "
            f"{report['policies']['batch']['overhead_pct']:.1f}% "
            f"(ceiling {SMOKE_MAX_BATCH_OVERHEAD_PCT:.0f}%), recovery "
            f"digest-identical"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
