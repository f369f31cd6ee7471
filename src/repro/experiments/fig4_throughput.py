"""Fig. 4 — Throughput comparison: SFP (switch) vs software SFC (DPDK).

The paper sends 100 Gbps of fixed-size packets (64-1500 B) through a 4-NF
chain (firewall, traffic classifier, load balancer, router) deployed (a) on
the Tofino via SFP and (b) on a server with DPDK.  SFP saturates the sender
at every size; DPDK is pps-bound and only reaches line rate at 1500 B, with
>=10x gap at 64 B.

This runner additionally pushes a real packet batch through the functional
pipeline (the installed 4-NF chain) to confirm the chain processes traffic
end to end, then reports the calibrated throughput series.
"""

from __future__ import annotations

from repro import units
from repro.baseline.dpdk import DpdkChainModel
from repro.core.spec import SwitchSpec
from repro.dataplane.latency import AsicModel
from repro.dataplane.pipeline import SwitchPipeline
from repro.dataplane.virtualization import LogicalNF, LogicalSFC, SFCVirtualizer
from repro.experiments.config import OFFERED_GBPS, PACKET_SIZES
from repro.experiments.harness import ExperimentResult
from repro.nfs import get_nf, install_physical_nf
from repro.rng import make_rng
from repro.traffic.flows import FlowGenerator

#: The §VI-B chain.
CHAIN = ("firewall", "traffic_classifier", "load_balancer", "router")

#: The throughput models cost nothing, so every scale runs the paper's sweep.
GRIDS = {"smoke": {}, "quick": {}, "paper": {}}

PAPER = (
    "SFP saturates the 100 Gbps sender at all packet sizes; DPDK is "
    "pps-bound, >=10x slower at 64 B, line-rate only at 1500 B."
)


def build_demo_pipeline(seed: int | None = None) -> tuple[SwitchPipeline, SFCVirtualizer]:
    """A 4-stage pipeline with the Fig. 4 chain installed for tenant 1."""
    rng = make_rng(seed)
    spec = SwitchSpec(stages=4, blocks_per_stage=20)
    pipeline = SwitchPipeline(spec=spec, max_passes=4)
    nfs = []
    for stage, name in enumerate(CHAIN):
        install_physical_nf(pipeline, name, stage)
        nf_def = get_nf(name)
        nfs.append(LogicalNF(nf_name=name, rules=tuple(nf_def.generate_rules(rng, 64))))
    virtualizer = SFCVirtualizer(pipeline)
    virtualizer.install_sfc(LogicalSFC(tenant_id=1, nfs=tuple(nfs)))
    return pipeline, virtualizer


def functional_check(seed: int | None = None, packets: int = 256) -> dict:
    """Drive real packets through the installed chain; returns counters."""
    pipeline, _virt = build_demo_pipeline(seed)
    gen = FlowGenerator(seed)
    flows = gen.flows(32, tenant_id=1)
    batch = gen.packets(flows, packets, size_bytes=64)
    results = pipeline.process_batch(batch)
    delivered = sum(r.delivered for r in results)
    return {
        "packets": len(results),
        "delivered": delivered,
        "dropped": len(results) - delivered,
        "entries_installed": pipeline.total_entries(),
    }


def run(
    offered_gbps: float = OFFERED_GBPS,
    packet_sizes=PACKET_SIZES,
    seed: int | None = None,
) -> ExperimentResult:
    """Regenerate Fig. 4's two series (plus pps, the paper's other axis)."""
    asic = AsicModel()
    dpdk = DpdkChainModel(chain_length=len(CHAIN))
    result = ExperimentResult(
        name="fig4",
        description="throughput vs packet size, SFP (switch) vs DPDK SFC",
        columns=[
            "packet_bytes",
            "sfp_gbps",
            "dpdk_gbps",
            "sfp_mpps",
            "dpdk_mpps",
            "speedup",
        ],
    )
    for size in packet_sizes:
        sfp = asic.throughput_gbps(offered_gbps, size)
        sw = dpdk.throughput_gbps(offered_gbps, size)
        result.add_row(
            packet_bytes=size,
            sfp_gbps=sfp,
            dpdk_gbps=sw,
            sfp_mpps=units.mpps(units.gbps_to_pps(sfp, size)),
            dpdk_mpps=units.mpps(units.gbps_to_pps(sw, size)),
            speedup=sfp / sw if sw > 0 else float("inf"),
        )
    check = functional_check(seed)
    result.notes.append(
        f"functional pipeline check: {check['delivered']}/{check['packets']} "
        f"packets delivered through the installed 4-NF chain "
        f"({check['entries_installed']} rules installed)"
    )
    report = dpdk.resource_report()
    result.notes.append(
        f"DPDK footprint SFP offloads: {report['memory_mb']:.0f} MB, "
        f"{report['cpu_utilization'] * 100:.2f}% CPU "
        f"({report['cores_used']:.0f}/56 cores)"
    )
    return result


def check(result: ExperimentResult) -> list[tuple[str, bool]]:
    """Fig. 4's shape claims, as ``(claim, ok)`` pairs."""
    sizes = result.column("packet_bytes")
    sfp = result.column("sfp_gbps")
    dpdk = result.column("dpdk_gbps")
    return [
        ("sweep spans 64 B to 1500 B", sizes[0] == 64 and sizes[-1] == 1500),
        ("SFP saturates 100 Gbps at every packet size", all(abs(v - 100) < 1e-6 for v in sfp)),
        (">=10x speedup at 64 B (paper: 'at least 10 times')", result.rows[0]["speedup"] >= 10),
        ("DPDK non-decreasing in packet size", all(a <= b + 1e-9 for a, b in zip(dpdk, dpdk[1:]))),
        ("DPDK reaches line rate only at 1500 B", dpdk[-1] == 100 and max(dpdk[:-1]) < 100),
    ]
