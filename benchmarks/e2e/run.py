#!/usr/bin/env python3
"""The repo's end-to-end benchmark: the intent path and the packet path.

    python3 benchmarks/e2e/run.py --seed 1                 # all four workloads
    python3 benchmarks/e2e/run.py --seed 1 --trace         # ... plus the layer budget
    python3 benchmarks/e2e/run.py --workload pkt_bulk --seed 1 --seconds 10 --trace 0

Every metric is printed by name with its unit (with several workloads,
each runs in a process of its own, one at a time); the last line of output
is one JSON object for the last workload run (``correct``, ``attempted``,
``failed``, ``metrics``: the end-to-end metrics, or with ``--trace 1`` the
per-layer ones).  The exit code is non-zero when a correctness check
fails.  README.md explains workloads, metrics and how to compare runs.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from functools import partial
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
OUT = os.path.join(HERE, "out")

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
SMOKE_SECONDS = 1.5


def load_workloads() -> dict:
    """Workload name -> ``factory(seed, out_dir, seconds, trace)`` and its
    recorded configuration.  Imported late: the program must be there."""
    import wl_http
    import wl_pkt
    import wl_place

    return {
        "intent_http": (wl_http.HttpWorkload, wl_http.CONFIG),
        "intent_place": (wl_place.PlaceWorkload, wl_place.CONFIG),
        "pkt_bulk": (partial(wl_pkt.PktWorkload, wl_pkt.PKT_BULK), wl_pkt.PKT_BULK.to_dict()),
        "pkt_mixed": (partial(wl_pkt.PktWorkload, wl_pkt.PKT_MIXED), wl_pkt.PKT_MIXED.to_dict()),
    }


def one_pass(workload, seconds: float, rec) -> dict:
    """Measure, then check and recover (never the other way round: checks
    run after timing)."""
    measured = workload.measure(seconds, rec)
    problems, failed, facts = workload.check(measured)
    times, recover_problems, recover_facts = workload.recover()
    measured.update(
        problems=problems + recover_problems,
        failed=failed,
        facts={**facts, **recover_facts},
        recover_s=min(times),
    )
    return measured


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """All of one workload: three set-ups, the untraced pass on the first,
    and with ``trace`` a traced pass on the last."""
    import catalog
    import spans as spans_mod

    factory, config = load_workloads()[name]
    base = os.path.join(OUT, f"{name}-{os.getpid()}")
    shutil.rmtree(base, ignore_errors=True)
    setup_times = []
    plain = traced = None
    layer = None
    workload = None
    rec = None
    try:
        for index in range(SETUPS):
            last = index == SETUPS - 1
            t0 = perf_counter()
            workload = factory(seed, os.path.join(base, str(index)), seconds, trace and last)
            setup_times.append(perf_counter() - t0)
            if index == 0:
                plain = one_pass(workload, seconds, None)
            elif trace and last:
                rec = spans_mod.Recorder()
                workload.install_spans(rec)
                traced = one_pass(workload, seconds, rec)
                rec.uninstall()
                layer = layer_metrics(name, workload, rec, plain, traced)
            workload.close()
            workload = None
    finally:
        if rec is not None:
            rec.uninstall()
        if workload is not None:
            workload.close()
        shutil.rmtree(base, ignore_errors=True)

    plain["setup_s"] = statistics.median(setup_times)
    end_to_end = {m.name: plain[m.name] for m in catalog.END_TO_END}
    problems = list(plain["problems"])
    if traced is not None:
        problems += [f"traced pass: {p}" for p in traced["problems"]]
    return {
        "workload": name,
        "config": config,
        "correct": not problems,
        "problems": problems,
        "attempted": plain["attempted"],
        "failed": plain["failed"],
        "samples": len(plain["latencies"]),
        "tail_percentile": plain["tail_pct"],
        "fail_share": plain["failed"] / plain["attempted"],
        "setup_times_s": setup_times,
        "facts": plain["facts"],
        "end_to_end": end_to_end,
        "per_layer": layer,
    }


def layer_metrics(name: str, workload, rec, plain: dict, traced: dict) -> dict:
    """Every per-layer metric of the traced pass; the spans, kept in
    memory until now, are written to ``out/spans-<workload>.tsv``."""
    import budget
    import spans as spans_mod

    spans = workload.trace_spans(rec)
    window = budget.within(spans, *traced["window"])
    out = budget.empty()
    timed, layers, selfs = budget.from_spans(window, traced["attempted"])
    out.update(timed)
    out.update(workload.layer_metrics(traced))
    extra, unattributed = workload.blocking_path(traced, window, layers, selfs)
    out.update(extra)
    after = [s for s in spans if s.start >= traced["window"][1]]
    out.update(budget.recovery_metrics(after, traced["facts"]["recoveries"]))
    out.update(budget.shares(layers))
    out["trace.unattributed_share"] = unattributed
    out["trace.overhead_share"] = 1.0 - traced["throughput_per_s"] / plain["throughput_per_s"]
    spans_mod.dump(spans, os.path.join(OUT, f"spans-{name}.tsv"))
    return out


def report(result: dict, catalog) -> None:
    """Every metric by name with its unit."""
    name = result["workload"]
    print(f"== {name}: {'correct' if result['correct'] else 'FAILED'}; "
          f"{result['attempted']} attempted, {result['failed']} failed, "
          f"{result['samples']} latency samples, tail = p{result['tail_percentile']:g}")
    for problem in result["problems"]:
        print(f"   problem: {problem}")
    for key, value in sorted(result["facts"].items()):
        print(f"   {key} = {value}")
    print(f"   {'fail_share':<48}{result['fail_share']:>16.6g} share")
    for metric in catalog.END_TO_END:
        print(f"   {metric.name:<48}{result['end_to_end'][metric.name]:>16.6g} {metric.unit}")
    if result["per_layer"] is not None:
        for metric in catalog.PER_LAYER:
            print(f"   {metric.name:<48}{result['per_layer'][metric.name]:>16.6g} {metric.unit}")


def driver_line(result: dict, catalog, trace: bool) -> str:
    """The contract's last line of output."""
    if trace:
        metrics = {
            m.name: {"value": result["per_layer"][m.name], "unit": m.unit}
            for m in catalog.PER_LAYER
        }
    else:
        metrics = {
            m.name: {"value": result["end_to_end"][m.name], "unit": m.unit}
            for m in catalog.END_TO_END
        }
    return json.dumps({
        "correct": result["correct"],
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    })


def run_each_in_its_own_process(args, names: list[str], seconds: float) -> int:
    """All workloads, one after the other, each in a fresh interpreter:
    peak RSS, allocator and collector state then belong to one workload,
    as they do when the driver runs them one per invocation."""
    status = 0
    document = None
    for name in names:
        part = os.path.join(OUT, f"part-{os.getpid()}-{name}.json")
        command = [
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(seconds),
            "--trace", str(args.trace), "--out", part,
        ] + (["--smoke"] if args.smoke else [])
        status = subprocess.run(command).returncode or status
        if os.path.exists(part):
            with open(part, encoding="utf-8") as fh:
                one = json.load(fh)
            os.unlink(part)
            if document is None:
                document = one
            else:
                document["workloads"].update(one["workloads"])
    if args.out and document is not None:
        write_document(args.out, document)
    return status


def write_document(path: str, document: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, help="length of the measured window")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        help="also run a traced pass and report the per-layer metrics")
    parser.add_argument("--out", help="write the results and their provenance to this file")
    parser.add_argument("--smoke", action="store_true",
                        help="short windows; never writes baseline.json")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"run.py: no program to measure: {ROOT}/src/repro is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import catalog
    import envelope

    names = [args.workload] if args.workload else list(catalog.WORKLOADS)
    for name in names:
        if name not in catalog.WORKLOADS:
            parser.error(f"unknown workload {name!r}; choices: {', '.join(catalog.WORKLOADS)}")
    seconds = args.seconds or (SMOKE_SECONDS if args.smoke else catalog.RUN_SECONDS)
    if args.out and args.smoke and os.path.basename(args.out) == "baseline.json":
        parser.error("--smoke never writes the committed baseline")

    os.makedirs(OUT, exist_ok=True)
    if len(names) > 1:
        return run_each_in_its_own_process(args, names, seconds)
    result = run_workload(names[0], args.seed, seconds, bool(args.trace))
    report(result, catalog)
    if args.out:
        write_document(args.out, {
            "provenance": envelope.make(ROOT, OUT, args.seed, seconds, args.smoke),
            "workloads": {result["workload"]: result},
        })
    print(driver_line(result, catalog, bool(args.trace)))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
