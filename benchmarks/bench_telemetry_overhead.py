#!/usr/bin/env python
"""Telemetry overhead benchmark: what do the hooks cost when off / sampled?

The dataplane hot path (``SwitchPipeline.process_batch``) is timed under
four telemetry configurations:

* ``off``      — no collector attached (the baseline).
* ``idle``     — a :class:`PostcardCollector` attached with
  ``sample_every=0``: the hook is armed but never samples.  This is the
  "telemetry fully off" configuration whose cost must stay **under 1%**.
* ``sampled``  — 1-in-64 deterministic sampling, the production setting;
  overhead must stay **under 10%**.
* ``full``     — every packet sampled (``sample_every=1``), reported for
  scale but not asserted (tracing everything is a debugging mode).

The control plane is timed separately: a synthesized churn replay with a
:class:`Tracer` + :class:`FlightRecorder` wired through the controller vs.
the same replay untraced (reported; spans are microseconds against
millisecond-scale ops).

Methodology: modes are *interleaved* — every repetition times all modes
back to back on freshly generated packets, so all four see the same
machine conditions.  The reported ``overhead_pct`` compares each mode's
best (minimum) time against the ``off`` best: with enough repetitions
both minimums converge to the true floor, so their ratio is the real
overhead.  The assertion additionally accepts the **median paired
ratio** (``overhead_paired_pct``): each repetition yields one
mode-vs-adjacent-``off`` ratio, and the median across repetitions is
robust to scheduler noise that poisons a minority of runs — either
estimator under the bar passes.  (An earlier revision took the *minimum*
paired ratio, which is biased low — the minimum of noisy ratios
systematically lands below 1.0, reporting impossible negative overheads
of -30% and worse; the median is a consistent estimator and agrees in
sign with the best-of floors.)  On a failed check, the CI guard
re-measures with doubled repetitions before declaring a failure, since a
loaded runner can poison a whole measurement.

``--fastpath`` attaches the compiled dataplane fast path
(:mod:`repro.fastpath`) to the benched pipeline before timing, so the
same four telemetry modes are measured over the columnar kernels.  This
mode is report-only: sampled packets deliberately route through the
interpreter to keep postcards bit-exact, so "sampling overhead" against
a compiled baseline measures the interpreter gap, not the hooks — the
<1%/<10% bars only apply to the interpreted path.

Run directly (no pytest needed):

    python benchmarks/bench_telemetry_overhead.py            # full run + JSON
    python benchmarks/bench_telemetry_overhead.py --smoke    # CI guard
    python benchmarks/bench_telemetry_overhead.py --fastpath # compiled path
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

from repro.telemetry import FlightRecorder, PostcardCollector, Timer, Tracer

#: (mode name, sample_every or None for "no collector attached").
MODES = (
    ("off", None),
    ("idle", 0),
    ("sampled", 64),
    ("full", 1),
)


def make_batch(num_packets: int, seed: int):
    """Fresh packets for one timed run (processing mutates them, so each
    measurement gets its own batch, generated outside the timer)."""
    from repro.traffic.flows import FlowGenerator

    gen = FlowGenerator(seed)
    flows = gen.flows(64, tenant_id=1)
    return gen.packets(flows, num_packets, size_bytes=64)


def bench_dataplane(
    num_packets: int,
    reps: int,
    seed: int,
    fastpath: bool = False,
) -> dict:
    """Best-of-``reps`` ``process_batch`` wall time per telemetry mode,
    interleaved so every mode sees the same machine conditions."""
    from statistics import median

    from repro.experiments.fig4_throughput import build_demo_pipeline

    pipeline, _virt = build_demo_pipeline(seed=seed)
    if fastpath:
        from repro.fastpath import FastPathEngine

        FastPathEngine.attach(pipeline)
        # Warm the plan cache so no timed run pays the one-off compile.
        pipeline.process_batch(make_batch(64, seed))
    best: dict[str, float] = {name: float("inf") for name, _ in MODES}
    ratios: dict[str, list[float]] = {
        name: [] for name, _ in MODES if name != "off"
    }
    for rep in range(reps):
        times: dict[str, float] = {}
        for name, sample_every in MODES:
            batch = make_batch(num_packets, seed + rep)
            if sample_every is None:
                pipeline.telemetry = None
            else:
                pipeline.telemetry = PostcardCollector(sample_every=sample_every)
            with Timer() as timer:
                pipeline.process_batch(batch)
            times[name] = timer.elapsed_s
            best[name] = min(best[name], timer.elapsed_s)
        for name in ratios:
            ratios[name].append(times[name] / times["off"])
    pipeline.telemetry = None
    base = best["off"]
    return {
        "num_packets": num_packets,
        "reps": reps,
        "fastpath": fastpath,
        "packets_per_sec": {
            name: round(num_packets / t, 1) for name, t in best.items()
        },
        "overhead_pct": {
            name: round(100.0 * (t - base) / base, 2)
            for name, t in best.items()
            if name != "off"
        },
        # Median of the per-repetition paired ratios: consistent where the
        # old min-of-ratios was biased negative (see module docstring).
        "overhead_paired_pct": {
            name: round(100.0 * (median(series) - 1.0), 2)
            for name, series in ratios.items()
        },
    }


def bench_control_plane(duration_s: float, reps: int, seed: int) -> dict:
    """Churn replay wall time, untraced vs. fully traced (tracer + flight
    recorder wired through the controller and installer)."""
    from repro.controller import (
        ChurnConfig,
        ChurnEngine,
        SfcController,
        synthesize_churn,
    )
    from repro.experiments.config import PAPER_SWITCH, PAPER_WORKLOAD
    from repro.traffic.workload import make_instance

    from dataclasses import replace

    workload = replace(PAPER_WORKLOAD, num_sfcs=0)
    config = ChurnConfig(duration_s=duration_s, workload=workload)
    events = synthesize_churn(config, rng=seed)
    instance = make_instance(
        workload, switch=PAPER_SWITCH, max_recirculations=2, rng=seed
    )

    best = {"plain": float("inf"), "traced": float("inf")}
    for _rep in range(reps):
        for mode in ("plain", "traced"):
            kwargs = {}
            if mode == "traced":
                kwargs = {"tracer": Tracer(), "recorder": FlightRecorder()}
            controller = SfcController.for_instance(instance, **kwargs)
            report = ChurnEngine(controller).replay(events)
            best[mode] = min(best[mode], report.wall_seconds)
    return {
        "events": len(events),
        "reps": reps,
        "wall_seconds": {m: round(t, 4) for m, t in best.items()},
        "overhead_pct": round(
            100.0 * (best["traced"] - best["plain"]) / best["plain"], 2
        ),
    }


def run(
    num_packets: int,
    reps: int,
    duration_s: float,
    seed: int,
    fastpath: bool = False,
) -> dict:
    return {
        "benchmark": "telemetry-overhead",
        "seed": seed,
        "python": sys.version.split()[0],
        "dataplane": bench_dataplane(num_packets, reps, seed, fastpath=fastpath),
        "control_plane": bench_control_plane(duration_s, reps, seed),
    }


#: Acceptance bars: armed-but-idle hooks < 1%, 1-in-64 sampling < 10%.
IDLE_MAX_PCT = 1.0
SAMPLED_MAX_PCT = 10.0


def check(report: dict) -> list[str]:
    """The acceptance assertions; returns failure strings (empty = pass).

    A mode passes if either estimator is under its bar: the best-of floor
    comparison (the reported number) or the minimum paired ratio (robust
    to scheduler noise that hits one mode's repetitions harder).
    """
    overhead = report["dataplane"]["overhead_pct"]
    paired = report["dataplane"]["overhead_paired_pct"]
    failures = []
    if min(overhead["idle"], paired["idle"]) >= IDLE_MAX_PCT:
        failures.append(
            f"idle (armed, never sampling) overhead {overhead['idle']}% "
            f"(paired {paired['idle']}%) >= {IDLE_MAX_PCT}%"
        )
    if min(overhead["sampled"], paired["sampled"]) >= SAMPLED_MAX_PCT:
        failures.append(
            f"1-in-64 sampling overhead {overhead['sampled']}% "
            f"(paired {paired['sampled']}%) >= {SAMPLED_MAX_PCT}%"
        )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="fast CI guard: smaller batches, same assertions",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--fastpath", action="store_true",
        help="attach the compiled fast path to the benched pipeline "
             "(report-only: the <1%%/<10%% bars are interpreter bars)",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="where to write the JSON report (default: BENCH_telemetry.json at "
             "the repo root; BENCH_telemetry.smoke.json with --smoke, so a "
             "smoke run never overwrites the committed full-run numbers)",
    )
    args = parser.parse_args(argv)
    if args.out is None:
        args.out = os.path.join(
            os.path.dirname(os.path.abspath(__file__)), "..",
            "BENCH_telemetry.smoke.json" if args.smoke else "BENCH_telemetry.json",
        )

    if args.smoke:
        num_packets, reps, duration_s = 1500, 7, 3.0
    else:
        num_packets, reps, duration_s = 5000, 9, 8.0

    # A loaded runner can poison every repetition of one measurement, so a
    # failed check earns up to two re-measurements with doubled repetitions
    # before it counts.
    for attempt in range(3):
        if attempt:
            reps *= 2
            print(f"retrying dataplane measurement with reps={reps}")
        report = run(
            num_packets=num_packets, reps=reps, duration_s=duration_s,
            seed=args.seed, fastpath=args.fastpath,
        )
        if args.fastpath:
            # Sampled/traced packets route through the interpreter by
            # design (postcard bit-exactness), so the hook-cost bars do
            # not apply to the compiled path: report, don't assert.
            failures = []
            break
        failures = check(report)
        if not failures:
            break

    rates = report["dataplane"]["packets_per_sec"]
    overhead = report["dataplane"]["overhead_pct"]
    for name, _ in MODES:
        extra = "" if name == "off" else f"   overhead {overhead[name]:+.2f}%"
        print(f"dataplane {name:>8}: {rates[name]:>12,.0f} packets/s{extra}")
    cp = report["control_plane"]
    print(
        f"control plane: {cp['events']} events, plain "
        f"{cp['wall_seconds']['plain']}s vs traced "
        f"{cp['wall_seconds']['traced']}s ({cp['overhead_pct']:+.2f}%)"
    )

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)

    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"wrote {os.path.abspath(args.out)}")
    if failures:
        return 1
    if args.fastpath:
        print(
            "ok: compiled-path report only (hook-cost bars apply to the "
            "interpreted path)"
        )
        return 0
    paired = report["dataplane"]["overhead_paired_pct"]
    print(
        f"ok: idle {min(overhead['idle'], paired['idle'])}% < "
        f"{IDLE_MAX_PCT}%, "
        f"sampled {min(overhead['sampled'], paired['sampled'])}% < "
        f"{SAMPLED_MAX_PCT}%"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
