#!/usr/bin/env python
"""Controller churn benchmark: event throughput and admit-latency percentiles.

Synthesizes a seeded tenant-churn stream (Poisson arrivals, exponential
lifetimes, mid-lifetime chain modifications), replays it through the
:class:`~repro.controller.SfcController` — admission control, placement,
and the two-phase data-plane installer — and records events/sec plus p50/p99
admit latency into ``BENCH_controller.json``.

Run directly (no pytest needed):

    python benchmarks/bench_controller_churn.py            # full run + JSON report
    python benchmarks/bench_controller_churn.py --smoke    # CI regression guard

``--smoke`` replays a shorter stream (still several hundred events), checks
the churn invariant — the controller's incremental resource accounting must
match a from-scratch recomputation bit for bit — and exits non-zero if the
invariant breaks or throughput falls below a conservative floor.
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

import numpy as np

from repro.controller import ChurnConfig, ChurnEngine, SfcController, synthesize_churn
from repro.core.state import PipelineState
from repro.rng import DEFAULT_SEED
from repro.traffic.workload import WorkloadConfig, make_instance

#: Conservative floor for the CI guard (the pure-python reference easily
#: clears hundreds of events/sec; below this something regressed badly).
SMOKE_EVENTS_PER_SEC_FLOOR = 50.0

WORKLOAD = WorkloadConfig(
    num_sfcs=0, num_types=6, avg_chain_length=3, chain_length_spread=2,
    rules_min=1, rules_max=4, mean_bandwidth_gbps=1.0, max_bandwidth_gbps=4.0,
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


def check_invariant(controller: SfcController) -> bool:
    """True iff incremental accounting equals a from-scratch recompute."""
    reference = PipelineState.from_placement(controller.placement)
    return (
        np.array_equal(controller.state.entries, reference.entries)
        and np.array_equal(controller.state.nf_blocks, reference.nf_blocks)
        and np.array_equal(controller.state.physical, reference.physical)
        and controller.state.backplane_gbps == reference.backplane_gbps
    )


def run(duration_s: float, with_dataplane: bool) -> dict:
    """Replay one seeded stream and assemble the JSON report."""
    config = churn_config(duration_s)
    events = synthesize_churn(config, rng=DEFAULT_SEED)
    instance = make_instance(config.workload, max_recirculations=2, rng=DEFAULT_SEED)
    controller = SfcController(instance, with_dataplane=with_dataplane)
    report = ChurnEngine(controller).replay(events)
    summary = report.summary()
    return {
        "benchmark": "controller-churn",
        "seed": DEFAULT_SEED,
        "python": sys.version.split()[0],
        "duration_s": duration_s,
        "with_dataplane": with_dataplane,
        "events": int(summary["events"]),
        "admitted": int(summary["admitted"]),
        "evicted": int(summary["evicted"]),
        "modified": int(summary["modified"]),
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
        "rules_added": int(summary["rules_added"]),
        "rules_deleted": int(summary["rules_deleted"]),
        "live_tenants": len(controller.tenants),
        "invariant_ok": check_invariant(controller),
    }


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="fast CI guard: shorter stream, invariant + throughput floor",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="where to write the JSON report (default: BENCH_controller.json at "
             "the repo root; BENCH_controller.smoke.json with --smoke, so a "
             "smoke run never overwrites the committed full-run numbers)",
    )
    args = parser.parse_args(argv)
    if args.out is None:
        args.out = os.path.join(
            os.path.dirname(os.path.abspath(__file__)), "..",
            "BENCH_controller.smoke.json" if args.smoke else "BENCH_controller.json",
        )

    duration = 15.0 if args.smoke else 60.0
    report = run(duration_s=duration, with_dataplane=True)

    latency = (
        "admit latency n/a"
        if report["admit_p50_ms"] is None
        else (
            f"admit latency p50={report['admit_p50_ms']:.3f}ms "
            f"p99={report['admit_p99_ms']:.3f}ms"
        )
    )
    print(
        f"{report['events']} events "
        f"({report['admitted']} admitted / {report['modified']} modified / "
        f"{report['evicted']} evicted / {report['rejected']} rejected): "
        f"{report['events_per_sec']:,.0f} events/s, {latency}, "
        f"rules +{report['rules_added']}/-{report['rules_deleted']}, "
        f"invariant {'OK' if report['invariant_ok'] else 'VIOLATED'}"
    )

    if not report["invariant_ok"]:
        print("FAIL: churn invariant violated (incremental accounting drifted "
              "from a from-scratch recomputation)", file=sys.stderr)
        return 1
    if args.smoke:
        if report["events"] < 100:
            print(f"FAIL: smoke stream too short ({report['events']} events)",
                  file=sys.stderr)
            return 1
        if report["events_per_sec"] < SMOKE_EVENTS_PER_SEC_FLOOR:
            print(
                f"FAIL: {report['events_per_sec']:.0f} events/s is below the "
                f"{SMOKE_EVENTS_PER_SEC_FLOOR:.0f}/s floor",
                file=sys.stderr,
            )
            return 1

    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"wrote {os.path.abspath(args.out)}")
    if args.smoke:
        print(f"smoke ok: {report['events_per_sec']:,.0f} events/s over "
              f"{report['events']} events")
    return 0


if __name__ == "__main__":
    sys.exit(main())
