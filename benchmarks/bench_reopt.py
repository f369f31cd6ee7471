#!/usr/bin/env python
"""Global re-optimization benchmark: spillover and stitch reduction.

Long tenant churn fragments a fabric: chains stitched across two switches
when the fleet was momentarily full stay stitched forever, and spillover
compounds as the partitioner's first choice keeps refusing.  This
benchmark measures what one fleet-wide re-optimization pass buys, judged
two ways:

* a **deterministic fragmentation fixture** (fillers force long chains to
  stitch, then the fillers leave): the fleet is built twice, one copy is
  re-optimized — the stranded chains must unstitch hitlessly (every
  migrated tenant forwards end to end before its old placement is torn
  down) — and both copies then face an *identical* admission-probe batch.
  Probe spillover rate (the fraction not served at its first-choice
  switch) is the judged number: the fragmented fleet rejects what the
  defragmented fleet admits.
* a **churn A/B comparison** on the ``bench_fabric_churn.py`` workload:
  the same seeded stream replays over two identical fabrics, one under a
  periodic re-optimization cadence from the 60% mark, one left alone, and
  the continuation phase's spillover rate and final stitch counts are
  compared — for both the hash and the load-aware (least-backplane)
  partitioners.  Sustained churn keeps re-fragmenting, so the robust
  signal here is the stitch count the cadence holds near zero; organic
  spillover moves with admission-mix noise.

Results land in ``BENCH_reopt.json``.  Run directly (no pytest needed):

    python benchmarks/bench_reopt.py            # full sweep + JSON report
    python benchmarks/bench_reopt.py --smoke    # CI regression guard

``--smoke`` shrinks the streams and exits non-zero unless the fixture's
stitch count drops, its probe spillover rate drops, every migration probe
passes, and the fabric bit-identity invariant holds on every fabric
touched.
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
from repro.core.spec import SFC, SwitchSpec
from repro.fabric import (
    FabricOrchestrator,
    FabricTopology,
    make_partitioner,
)
from repro.rng import DEFAULT_SEED
from repro.traffic.workload import WorkloadConfig

#: The fabric-churn benchmark's workload (same chain mix, same knobs).
WORKLOAD = WorkloadConfig(
    num_sfcs=0, num_types=6, avg_chain_length=3, chain_length_spread=2,
    rules_min=1, rules_max=4, mean_bandwidth_gbps=1.0, max_bandwidth_gbps=4.0,
)

#: Deliberately tight per-shard switch (shared with bench_fabric_churn):
#: 4 stages x 8 blocks, 40 Gbps backplane.
SHARD_SPEC = SwitchSpec(
    stages=4, blocks_per_stage=8, block_bits=6400, rule_bits=64,
    capacity_gbps=40.0,
)

NUM_SWITCHES = 4


def make_fabric(partitioner: str, with_dataplane: bool) -> FabricOrchestrator:
    topology = FabricTopology.full_mesh(
        NUM_SWITCHES, spec=SHARD_SPEC, link_capacity_gbps=100.0,
        max_recirculations=1,
    )
    return FabricOrchestrator(
        topology,
        num_types=WORKLOAD.num_types,
        partitioner=make_partitioner(partitioner),
        with_dataplane=with_dataplane,
    )


def churn_config(duration_s: float) -> ChurnConfig:
    """The fabric-churn mix, tuned so the fleet runs near — not past —
    capacity: rejections then come from fragmentation (stranded stitched
    placements, uneven shards) rather than hard saturation, which is the
    regime a re-optimizer can actually repair."""
    return ChurnConfig(
        duration_s=duration_s,
        arrival_rate_per_s=20.0,
        mean_lifetime_s=8.0,
        modify_fraction=0.25,
        workload=WORKLOAD,
    )


# ----------------------------------------------------------------------
# Deterministic fragmentation fixture
# ----------------------------------------------------------------------
def fragment_fixture(partitioner: str, with_dataplane: bool):
    """Build a fragmented fleet the same way long churn does, but
    deterministically and under *any* partitioner.  Backplane is the
    binding resource: 4.6 Gbps fillers saturate every switch to 36.8 of
    40 Gbps regardless of routing (spillover fills whatever the
    partitioner prefers first), so a recirculating 5-NF chain — 2 passes,
    4 Gbps single-homed, 2 Gbps per half — cannot fit whole anywhere and
    must stitch.  Evicting one filler per switch then opens single-home
    room fleet-wide: the stitched chains are stranded, exactly the state
    a global pass repairs."""
    fabric = make_fabric(partitioner, with_dataplane)
    tid = 0
    fillers = []
    while True:
        result = fabric.admit(SFC(
            name=f"filler-{tid}", nf_types=(1,), rules=(1,),
            bandwidth_gbps=4.6, tenant_id=tid,
        ))
        if not result.ok:
            break
        fillers.append(tid)
        tid += 1
    stitched_longs = 0
    for _ in range(NUM_SWITCHES):
        result = fabric.admit(SFC(
            name=f"long-{tid}", nf_types=(1, 2, 3, 4, 5),
            rules=(4, 4, 4, 4, 4), bandwidth_gbps=2.0, tenant_id=tid,
        ))
        if result.ok and len(result.switches) > 1:
            stitched_longs += 1
        tid += 1
    evicted_on: set[str] = set()
    for filler in fillers:
        home = fabric.tenants[filler].segments[0].switch
        if home not in evicted_on:
            evicted_on.add(home)
            fabric.evict(filler)
    return fabric, stitched_longs


#: One-pass probes sized so the fragmented fleet (5.8 Gbps residual per
#: switch) rejects them all, while the re-optimized fleet — which freed
#: the segment bandwidth of every unstitched chain — admits them.
PROBE_BW = 6.0
PROBE_COUNT = 8


def probe_batch(fabric: FabricOrchestrator) -> dict:
    """Offer an identical batch of admission probes and record how each
    lands: at its first-choice switch (rank 0), spilled (admitted at a
    lower-ranked switch or stitched), or rejected.  Each probe is evicted
    before the next, so every probe measures the same fleet state and the
    batch leaves the fleet unchanged."""
    outcomes = {"rank0": 0, "spilled": 0, "rejected": 0}
    base = 900_000
    for k in range(PROBE_COUNT):
        # Prime-strided ids (below the 2^20 wire-ID namespace) so the
        # batch's hash first-choices spread over the fleet the way
        # organic arrivals do.
        tenant_id = base + k * 7919
        result = fabric.admit(SFC(
            name=f"probe-{k}", nf_types=(1, 2, 3), rules=(2, 2, 2),
            bandwidth_gbps=PROBE_BW, tenant_id=tenant_id,
        ))
        if not result.ok:
            outcomes["rejected"] += 1
            continue
        if result.spillover or len(result.switches) > 1:
            outcomes["spilled"] += 1
        else:
            outcomes["rank0"] += 1
        fabric.evict(tenant_id)
    outcomes["spill_rate"] = round(
        1.0 - outcomes["rank0"] / PROBE_COUNT, 4
    )
    return outcomes


def run_fixture(partitioner: str, with_dataplane: bool, mode: str) -> dict:
    """Build the fragmented fleet twice (the build is deterministic),
    re-optimize one copy, then judge both with the same probe batch."""
    control, stitched_longs = fragment_fixture(partitioner, with_dataplane)
    treated, _ = fragment_fixture(partitioner, with_dataplane)
    report = treated.reoptimize(mode=mode)
    migration = report.migration.summary() if report.migration else {}
    probes_ok = report.migration is None or all(
        r.probed or not with_dataplane
        for r in report.migration.results if r.action == "executed"
    )
    probe_control = probe_batch(control)
    probe_treated = probe_batch(treated)
    return {
        "partitioner": partitioner,
        "mode": report.mode,
        "tenants": report.tenants,
        "stitched_before": report.stitched_before,
        "stitched_after": report.stitched_after,
        "stitch_reduction": report.stitch_reduction,
        "links_before": report.links_before,
        "links_after": report.links_after,
        "moves_planned": report.moves_planned,
        "moves_executed": migration.get("moves_executed", 0),
        "probes_ok": probes_ok,
        "probe_control": probe_control,
        "probe_treated": probe_treated,
        "spillover_reduction": round(
            probe_control["spill_rate"] - probe_treated["spill_rate"], 4
        ),
        "solve_s": round(report.solve_s, 4),
        "invariant_ok": (
            report.ok
            and treated.check_invariant() == []
            and control.check_invariant() == []
        ),
        "_stitched_longs": stitched_longs,
    }


# ----------------------------------------------------------------------
# Churn A/B comparison
# ----------------------------------------------------------------------
def spillover_counters(fabric: FabricOrchestrator) -> tuple[int, int]:
    counters = fabric.metrics_snapshot()["counters"]
    return int(counters.get("spillovers", 0)), int(counters.get("admitted", 0))


def run_churn_pair(
    partitioner: str, duration_s: float, with_dataplane: bool, mode: str
) -> dict:
    """Replay one seeded stream over two identical fabrics; one gets a
    periodic re-optimization cadence from the 60% mark on (the drift-gated
    loop an operator would run), the other is left to fragment."""
    events = synthesize_churn(churn_config(duration_s), rng=DEFAULT_SEED)
    cut = int(len(events) * 0.6)
    phase_a, phase_b = events[:cut], events[cut:]

    control = make_fabric(partitioner, with_dataplane)
    treated = make_fabric(partitioner, with_dataplane)
    ChurnEngine(control).replay(phase_a)
    ChurnEngine(treated).replay(phase_a)

    # A low benefit gate lets pure balance moves through (their squared-
    # utilization gain is small per move but compounds against spillover).
    min_benefit = 0.02
    first = treated.reoptimize(mode=mode, min_benefit=min_benefit)
    spill_a, admit_a = spillover_counters(control)

    # Phase B: the treated fabric re-optimizes between chunks — churn
    # keeps re-fragmenting, the cadence keeps repairing.
    chunks = 4
    size = max(1, len(phase_b) // chunks)
    passes_ok = first.ok
    moves = first.migration.executed if first.migration else 0
    for i in range(0, len(phase_b), size):
        ChurnEngine(control).replay(phase_b[i:i + size])
        ChurnEngine(treated).replay(phase_b[i:i + size])
        report = treated.reoptimize(mode=mode, min_benefit=min_benefit)
        passes_ok = passes_ok and report.ok
        moves += report.migration.executed if report.migration else 0

    def phase_b_rate(fabric: FabricOrchestrator) -> float:
        spills, admits = spillover_counters(fabric)
        db = admits - admit_a
        return (spills - spill_a) / db if db else 0.0

    control_rate = phase_b_rate(control)
    treated_rate = phase_b_rate(treated)
    return {
        "partitioner": partitioner,
        "events": len(events),
        "reopt": {
            "mode": first.mode,
            "stitched_before": first.stitched_before,
            "stitched_after": first.stitched_after,
            "moves_executed": moves,
            "solve_s": round(first.solve_s, 4),
            "ok": passes_ok,
        },
        "control_spillover_rate_b": round(control_rate, 4),
        "treated_spillover_rate_b": round(treated_rate, 4),
        "spillover_reduction_b": round(control_rate - treated_rate, 4),
        "control_stitched_final": control.summary()["stitched_tenants"],
        "treated_stitched_final": treated.summary()["stitched_tenants"],
        "invariant_ok": (
            control.check_invariant() == [] and treated.check_invariant() == []
        ),
    }


def run(duration_s: float, with_dataplane: bool, mode: str) -> dict:
    fixtures = []
    pairs = []
    for partitioner in ("hash", "least-backplane"):
        fixtures.append(run_fixture(partitioner, with_dataplane, mode))
        pairs.append(
            run_churn_pair(partitioner, duration_s, with_dataplane, mode)
        )
    return {
        "benchmark": "global-reoptimization",
        "seed": DEFAULT_SEED,
        "python": sys.version.split()[0],
        "duration_s": duration_s,
        "with_dataplane": with_dataplane,
        "fixtures": fixtures,
        "churn_pairs": pairs,
    }


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="fast CI guard: shorter streams, stitch-reduction + invariant "
             "+ probe assertions",
    )
    parser.add_argument(
        "--mode", choices=("auto", "ilp", "greedy"), default="auto",
        help="solver mode for every re-optimization pass",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="where to write the JSON report (default: BENCH_reopt.json at "
             "the repo root; BENCH_reopt.smoke.json with --smoke, so a "
             "smoke run never overwrites the committed full-run numbers)",
    )
    args = parser.parse_args(argv)
    if args.out is None:
        args.out = os.path.join(
            os.path.dirname(os.path.abspath(__file__)), "..",
            "BENCH_reopt.smoke.json" if args.smoke else "BENCH_reopt.json",
        )

    duration = 10.0 if args.smoke else 30.0
    report = run(duration_s=duration, with_dataplane=True, mode=args.mode)

    failed = False
    for row in report["fixtures"]:
        print(
            f"fixture[{row['partitioner']}] ({row['mode']}): "
            f"{row['tenants']} tenants, stitched {row['stitched_before']} -> "
            f"{row['stitched_after']}, {row['moves_executed']} moves, "
            f"probe spillover {row['probe_control']['spill_rate']:.2%} -> "
            f"{row['probe_treated']['spill_rate']:.2%}, "
            f"probes {'OK' if row['probes_ok'] else 'FAILED'}, "
            f"invariant {'OK' if row['invariant_ok'] else 'VIOLATED'}"
        )
        if not (row["invariant_ok"] and row["probes_ok"]):
            failed = True
        if args.smoke:
            if row["stitched_before"] == 0:
                print(
                    f"FAIL: fixture[{row['partitioner']}] never fragmented "
                    f"(0 stitched tenants before the pass)", file=sys.stderr,
                )
                failed = True
            elif row["stitched_after"] >= row["stitched_before"]:
                print(
                    f"FAIL: fixture[{row['partitioner']}] stitch count did "
                    f"not drop ({row['stitched_before']} -> "
                    f"{row['stitched_after']})", file=sys.stderr,
                )
                failed = True
            if row["spillover_reduction"] <= 0:
                print(
                    f"FAIL: fixture[{row['partitioner']}] probe spillover "
                    f"rate did not drop "
                    f"({row['probe_control']['spill_rate']:.2%} -> "
                    f"{row['probe_treated']['spill_rate']:.2%})",
                    file=sys.stderr,
                )
                failed = True
    for row in report["churn_pairs"]:
        print(
            f"churn[{row['partitioner']}]: {row['events']} events, "
            f"phase-B spillover {row['control_spillover_rate_b']:.2%} "
            f"(control) vs {row['treated_spillover_rate_b']:.2%} "
            f"(re-optimized), stitched at end "
            f"{row['control_stitched_final']} vs "
            f"{row['treated_stitched_final']}, "
            f"invariant {'OK' if row['invariant_ok'] else 'VIOLATED'}"
        )
        if not (row["invariant_ok"] and row["reopt"]["ok"]):
            failed = True

    for row in report["fixtures"]:
        row.pop("_stitched_longs", None)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    print(f"wrote {os.path.abspath(args.out)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
