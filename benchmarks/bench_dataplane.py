#!/usr/bin/env python
"""Dataplane benchmarks: interpreter microbenches + the compiled fast path.

Two halves:

* **pytest-benchmark microbenches** (run under ``pytest benchmarks/``):
  the simulator's packet rate, ``PipelineState.fits`` probe cost, and the
  indexed-vs-linear lookup pair, so regressions in the hot paths stay
  visible over time.
* **the standalone compiled-vs-interpreted sweep** (no pytest needed):
  builds a multi-tenant fabric-shaped workload — N tenants, each with the
  Fig. 4 chain (firewall, traffic classifier, load balancer, router) and
  64 rules per NF — and measures ``process_batch`` throughput with and
  without a :class:`repro.fastpath.FastPathEngine` attached, recording
  everything into ``BENCH_dataplane.json``:

      python benchmarks/bench_dataplane.py            # full sweep + JSON
      python benchmarks/bench_dataplane.py --smoke    # CI guard

  Both verify a sample batch bit-identical against the interpreter before
  timing anything, then guard two things on the last case run: the
  compiled path beats the interpreter (``MIN_SPEEDUP``), and its pps is
  not below the committed ``BENCH_dataplane.json`` row for the same case
  (``ROW_TOLERANCE``) — ``--smoke`` runs the smallest committed case.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

if __package__ in (None, ""):  # running as a script: make src/ importable
    _root = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
    sys.path.insert(0, os.path.join(_root, "src"))
    sys.path.insert(0, _root)

from repro.core.state import PipelineState
from repro.dataplane.pipeline import SwitchPipeline
from repro.dataplane.virtualization import LogicalNF, LogicalSFC, SFCVirtualizer
from repro.experiments.fig4_throughput import CHAIN, build_demo_pipeline
from repro.core.spec import SwitchSpec
from repro.nfs import get_nf, install_physical_nf
from repro.rng import DEFAULT_SEED, make_rng
from repro.telemetry.metrics import Timer
from repro.traffic import WorkloadConfig, make_instance
from repro.traffic.flows import FlowGenerator

from benchmarks.bench_lookup import build_entries, build_packets, build_table


# ---------------------------------------------------------------------------
# pytest-benchmark microbenches
# ---------------------------------------------------------------------------
def test_pipeline_packet_rate(benchmark):
    pipeline, _virt = build_demo_pipeline(seed=1)
    gen = FlowGenerator(1)
    flows = gen.flows(64, tenant_id=1)

    def process():
        # Re-arm per-round: recirculation state is per-packet, so packets
        # must be fresh copies each time.
        batch = gen.packets(flows, 64, size_bytes=64)
        return pipeline.process_batch(batch)

    results = benchmark(process)
    assert all(r.delivered or r.packet.dropped for r in results)


def test_state_fits_probe_rate(benchmark):
    instance = make_instance(WorkloadConfig(num_sfcs=30), rng=3)
    state = PipelineState(instance)
    for i in range(instance.num_types):
        state.add_logical_nf(i, i % instance.switch.stages, 500)

    def probe():
        hits = 0
        for i in range(instance.num_types):
            for s in range(instance.switch.stages):
                hits += state.fits(i, s, 700)
        return hits

    hits = benchmark(probe)
    assert hits > 0


def _lookup_workload(num_entries=2000):
    rng = make_rng(DEFAULT_SEED + num_entries)
    entries = build_entries(num_entries, rng)
    packets = build_packets(128, num_entries, rng)
    return entries, packets


def test_table_lookup_indexed_rate(benchmark):
    entries, packets = _lookup_workload()
    table = build_table(entries, indexed=True)

    def sweep():
        for p in packets:
            table.lookup(p)
        return table.hits + table.misses

    assert benchmark(sweep) > 0


def test_table_lookup_linear_rate(benchmark):
    entries, packets = _lookup_workload()
    table = build_table(entries, indexed=False)

    def sweep():
        for p in packets:
            table.lookup(p)
        return table.hits + table.misses

    assert benchmark(sweep) > 0


# ---------------------------------------------------------------------------
# Compiled-vs-interpreted sweep (standalone)
# ---------------------------------------------------------------------------
#: Rules per NF per tenant; with the 4-NF chain a tenant carries 256 rules.
RULES_PER_NF = 64


def build_multitenant_pipeline(num_tenants: int, seed: int):
    """A 4-stage pipeline hosting ``num_tenants`` virtualized Fig. 4
    chains — the SFP sharing model at benchmark scale.  Returns the
    pipeline and the tenant IDs."""
    rng = make_rng(seed)
    spec = SwitchSpec(stages=4, blocks_per_stage=64)
    pipeline = SwitchPipeline(spec=spec, max_passes=4)
    for stage, name in enumerate(CHAIN):
        install_physical_nf(pipeline, name, stage)
    virtualizer = SFCVirtualizer(pipeline)
    tenants = list(range(1, num_tenants + 1))
    for tenant_id in tenants:
        nfs = tuple(
            LogicalNF(
                nf_name=name,
                rules=tuple(get_nf(name).generate_rules(rng, RULES_PER_NF)),
            )
            for name in CHAIN
        )
        virtualizer.install_sfc(LogicalSFC(tenant_id=tenant_id, nfs=nfs))
    return pipeline, tenants


def make_multitenant_batch(tenants, num_packets: int, seed: int):
    """``num_packets`` packets spread round-robin across the tenants (the
    per-tenant slices are contiguous flows, like real per-tenant traffic)."""
    per_tenant = max(1, num_packets // len(tenants))
    batch = []
    for tenant_id in tenants:
        gen = FlowGenerator(seed + tenant_id)
        flows = gen.flows(8, tenant_id=tenant_id)
        batch.extend(gen.packets(flows, per_tenant, size_bytes=64))
    return batch[:num_packets] if len(batch) > num_packets else batch


def _result_key(r):
    p = r.packet
    return (
        p.tenant_id, p.src_ip, p.dst_ip, p.src_port, p.dst_port,
        p.protocol, p.dscp, p.pass_id, p.recirculate, p.dropped,
        p.egress_port, r.passes, r.latency_ns,
    )


def verify_bit_identity(num_tenants: int, num_packets: int, seed: int) -> None:
    """Differential guard run before any timing: compiled results must be
    bit-identical to the interpreter on this workload."""
    from repro.fastpath import FastPathEngine

    ref_pipeline, tenants = build_multitenant_pipeline(num_tenants, seed)
    got_pipeline, _ = build_multitenant_pipeline(num_tenants, seed)
    FastPathEngine.attach(got_pipeline)
    ref = ref_pipeline.process_batch(make_multitenant_batch(tenants, num_packets, seed))
    got = got_pipeline.process_batch(make_multitenant_batch(tenants, num_packets, seed))
    mismatches = sum(
        1 for a, b in zip(ref, got) if _result_key(a) != _result_key(b)
    )
    if mismatches:
        raise AssertionError(
            f"compiled path diverged from the interpreter on "
            f"{mismatches}/{len(ref)} packets"
        )


def bench_case(num_tenants: int, num_packets: int, reps: int, seed: int) -> dict:
    """Best-of-``reps`` pps for the interpreter and the compiled path on
    one workload size."""
    from repro.fastpath import FastPathEngine

    pipeline, tenants = build_multitenant_pipeline(num_tenants, seed)

    def best_pps() -> float:
        best = float("inf")
        for rep in range(reps):
            batch = make_multitenant_batch(tenants, num_packets, seed + rep)
            with Timer() as timer:
                pipeline.process_batch(batch)
            best = min(best, timer.elapsed_s / len(batch))
        return 1.0 / best

    pps = {"interpreted": best_pps()}
    engine = FastPathEngine.attach(pipeline)
    # Warm the plan cache: the one-off compile is control-plane work, not
    # packet cost (it is amortized over every batch).
    pipeline.process_batch(make_multitenant_batch(tenants, 64, seed))
    pps["compiled_numpy"] = best_pps()
    engine.detach()
    return {
        "tenants": num_tenants,
        "entries": pipeline.total_entries(),
        "batch_packets": num_packets,
        "reps": reps,
        "packets_per_sec": {m: round(v, 1) for m, v in pps.items()},
        "speedup": round(pps["compiled_numpy"] / pps["interpreted"], 2),
    }


#: The bar on compiled/interpreted pps.  It was 5x (smoke) / 10x (full)
#: while the interpreter scanned every tenant's range rules on each lookup
#: (1.9k pps here); with range rules bucketed by ``(tenant, pass, ...)`` the
#: interpreter does this workload — every lookup misses, the least
#: favourable to the kernel, which walks whole blocks — at ~70k pps, so a
#: ratio no longer says whether the compiled path got slower.  What the
#: guard means: the fast path must beat the oracle it stands in for, and
#: must not fall below its own committed row.
MIN_SPEEDUP = 1.5
#: Compiled pps may not fall below this share of the committed row for the
#: same (tenants, entries, batch) case; the slack is the host's two-speed
#: regime (benchmarks/e2e/base.py: ~1.36x between windows).
ROW_TOLERANCE = 0.7
COMMITTED = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_dataplane.json"
)


def committed_row(case: dict) -> dict | None:
    """The committed full-run row for the same case, if there is one."""
    try:
        with open(COMMITTED) as fh:
            rows = json.load(fh)["cases"]
    except (OSError, ValueError, KeyError):
        return None
    keys = ("tenants", "entries", "batch_packets")
    for row in rows:
        if all(row.get(k) == case[k] for k in keys):
            return row
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="fast CI guard: the smallest committed case only",
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--out",
        default=None,
        help="where to write the JSON report (default: BENCH_dataplane.json at "
             "the repo root; BENCH_dataplane.smoke.json with --smoke, so a "
             "smoke run never overwrites the committed full-run numbers)",
    )
    args = parser.parse_args(argv)
    if args.out is None:
        args.out = os.path.join(
            os.path.dirname(os.path.abspath(__file__)), "..",
            "BENCH_dataplane.smoke.json" if args.smoke else "BENCH_dataplane.json",
        )

    if args.smoke:
        cases, reps, verify_packets = [(8, 2048)], 3, 512
    else:
        # 40 tenants x 4 NFs x 64 rules = 10,240 installed entries: the
        # acceptance workload.
        cases, reps, verify_packets = [(8, 2048), (20, 4096), (40, 8192)], 3, 1024

    verify_bit_identity(cases[-1][0], verify_packets, args.seed)
    print(
        f"bit-identity verified on {verify_packets} packets "
        f"({cases[-1][0]} tenants)"
    )

    results = []
    for num_tenants, num_packets in cases:
        case = bench_case(num_tenants, num_packets, reps, args.seed)
        results.append(case)
        rates = case["packets_per_sec"]
        print(
            f"{case['entries']:>6} entries, {num_tenants:>3} tenants: "
            f"interpreted {rates['interpreted']:>10,.0f} pps"
            f"   numpy {rates['compiled_numpy']:>12,.0f} pps"
            f"   speedup {case['speedup']:.1f}x"
        )

    worst = results[-1]
    # Read before a full run overwrites it: the floor is the *last* run's.
    row = committed_row(worst)
    report = {
        "benchmark": "dataplane-fastpath",
        "seed": args.seed,
        "python": sys.version.split()[0],
        "smoke": args.smoke,
        "min_speedup": MIN_SPEEDUP,
        "cases": results,
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"wrote {os.path.abspath(args.out)}")

    if worst["speedup"] < MIN_SPEEDUP:
        print(
            f"FAIL: compiled path {worst['speedup']}x < {MIN_SPEEDUP}x on "
            f"the {worst['entries']}-entry workload",
            file=sys.stderr,
        )
        return 1
    compiled = worst["packets_per_sec"]["compiled_numpy"]
    if row is not None:
        floor = ROW_TOLERANCE * row["packets_per_sec"]["compiled_numpy"]
        if compiled < floor:
            print(
                f"FAIL: compiled path {compiled:,.0f} pps < {floor:,.0f} "
                f"({ROW_TOLERANCE} x the committed row) on the "
                f"{worst['entries']}-entry workload",
                file=sys.stderr,
            )
            return 1
    print(
        f"ok: compiled {worst['speedup']}x interpreted (bar {MIN_SPEEDUP}x), "
        f"{compiled:,.0f} pps on {worst['entries']} entries"
        + ("" if row is None else
           f" (committed row {row['packets_per_sec']['compiled_numpy']:,.0f})")
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
