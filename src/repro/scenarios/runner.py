"""Campaign replay against the real fabric, phase by phase.

:class:`ScenarioRunner` drives a :class:`~repro.fabric.orchestrator.
FabricOrchestrator` with a compiled campaign stream.  Every event goes
through the one dispatch, :meth:`~repro.controller.events.ChurnEngine.
apply` — admit / evict / modify, the fabric's drain / undrain, and
fabric-wide ``reoptimize`` passes (hitless migration included) — into the
open phase's :class:`~repro.controller.events.ChurnReport`.  The runner
itself only does the phase-boundary work: every ``phase`` marker closes
the previous phase with optional probe traffic (:func:`probe_traffic`) and
a **bit-identity audit** — :meth:`FabricOrchestrator.check_invariant` plus
the fabric digest — so each campaign asserts the paper-critical invariant
at every phase boundary, not just at the end.

Reports keep the PR-3 convention: a phase (or a whole campaign) with zero
successful admits reports explicit ``None`` latency percentiles, never NaN.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.controller.events import ChurnEngine, ChurnReport, EventKind
from repro.errors import ScenarioError
from repro.fabric.orchestrator import FabricOrchestrator
from repro.fabric.partitioner import make_partitioner
from repro.scenarios.compile import (
    CompiledCampaign,
    compile_scenario,
)
from repro.scenarios.dsl import ScenarioSpec


def build_fabric(
    spec: ScenarioSpec,
    with_dataplane: bool = False,
    partitioner: str | None = None,
    **kwargs,
) -> FabricOrchestrator:
    """The fabric a campaign describes: topology built from the spec,
    catalog sized to the spec's workload, partitioner from the spec (or
    the ``partitioner`` override).  Control-plane only by default —
    campaigns measure placement behaviour, and the behavioural data plane
    costs ~10x wall time; pass ``with_dataplane=True`` to mirror installs.
    Extra keyword arguments go to :class:`FabricOrchestrator`."""
    return FabricOrchestrator(
        spec.topology.build(),
        num_types=spec.workload.num_types,
        partitioner=make_partitioner(partitioner or spec.partitioner),
        with_dataplane=with_dataplane,
        **kwargs,
    )


def probe_traffic(
    fabric: FabricOrchestrator, packets_per_tenant: int
) -> tuple[int, int, float]:
    """Push ``packets_per_tenant`` 64-byte packets per live tenant through
    its home shard's pipeline — one batch per shard, so compiled kernels
    see real multi-tenant batches — in deterministic order.  Returns
    ``(sent, delivered, seconds)``; nothing is sent on a control-plane-only
    fabric."""
    if packets_per_tenant <= 0 or not fabric.with_dataplane:
        return 0, 0, 0.0
    from repro.traffic.flows import FlowGenerator

    by_switch: dict[str, list[int]] = {}
    for tenant_id in sorted(fabric.tenants):
        record = fabric.tenants[tenant_id]
        by_switch.setdefault(record.segments[0].switch, []).append(tenant_id)
    sent = delivered = 0
    start = time.perf_counter()
    for switch in sorted(by_switch):
        shard = fabric.shards[switch]
        assert shard.pipeline is not None
        batch = []
        for tenant_id in by_switch[switch]:
            gen = FlowGenerator(tenant_id)
            flows = gen.flows(4, tenant_id=tenant_id)
            batch.extend(gen.packets(flows, packets_per_tenant, size_bytes=64))
        results = shard.pipeline.process_batch(batch)
        sent += len(results)
        delivered += sum(r.delivered for r in results)
    return sent, delivered, time.perf_counter() - start


@dataclass
class PhaseReport:
    """One phase's outcome: the replay report (lifecycle results and
    administrative tallies) and the phase-boundary audit (invariant
    problems + fabric digest at the boundary)."""

    name: str
    start_s: float
    end_s: float
    churn: ChurnReport = field(default_factory=ChurnReport)
    invariant_problems: list[str] = field(default_factory=list)
    digest: str = ""
    #: Phase-boundary traffic probe (0 packets when the runner has traffic
    #: disabled or the fabric runs control-plane only).
    traffic_packets: int = 0
    traffic_delivered: int = 0
    traffic_pps: float = 0.0

    @property
    def ok(self) -> bool:
        """Whether the fabric invariant held at this phase's boundary."""
        return not self.invariant_problems

    def summary(self) -> dict:
        """The phase's flat numbers: the churn summary (``None`` — not
        NaN — percentiles on zero admits) plus the boundary audit result."""
        out = dict(self.churn.summary())
        out["invariant_ok"] = self.ok
        if self.traffic_packets:
            out["traffic_packets"] = float(self.traffic_packets)
            out["traffic_delivered"] = float(self.traffic_delivered)
            out["traffic_pps"] = self.traffic_pps
        return out

    def describe(self) -> str:
        """One human-readable line (the CLI's per-phase output)."""
        traffic = ""
        if self.traffic_packets:
            traffic = (
                f"; traffic {self.traffic_delivered}/{self.traffic_packets} "
                f"delivered @ {self.traffic_pps:,.0f} pps"
            )
        return (
            f"[{self.name}] {self.churn.num_events} events: "
            f"{self.churn.outcomes()}{traffic}; "
            f"invariant {'OK' if self.ok else self.invariant_problems}"
        )


@dataclass
class CampaignReport:
    """A whole campaign's outcome: per-phase reports plus the merged
    campaign-wide churn view and the final fabric digest."""

    scenario: str
    seed: int
    trace_digest: str
    phases: list[PhaseReport] = field(default_factory=list)
    wall_seconds: float = 0.0
    final_digest: str = ""

    @property
    def ok(self) -> bool:
        """Whether the fabric invariant held at every phase boundary."""
        return all(phase.ok for phase in self.phases)

    @property
    def overall(self) -> ChurnReport:
        """All phases' replay reports merged into one."""
        return ChurnReport.merged(phase.churn for phase in self.phases)

    def summary(self) -> dict:
        """Campaign-wide flat numbers plus one summary dict per phase."""
        merged = self.overall
        out = dict(merged.summary())
        out["events_per_sec"] = (
            merged.num_events / self.wall_seconds if self.wall_seconds > 0 else 0.0
        )
        out["invariant_ok"] = self.ok
        out["phases"] = [
            {"name": p.name, **p.summary()} for p in self.phases
        ]
        return out

    def describe(self) -> str:
        """Multi-line human-readable campaign summary."""
        lines = [
            f"campaign {self.scenario!r} (seed {self.seed}, "
            f"trace {self.trace_digest}):"
        ]
        lines.extend(f"  {phase.describe()}" for phase in self.phases)
        s = self.overall.summary()
        lines.append(
            f"  total: {int(s['events'])} events in {self.wall_seconds:.2f}s, "
            f"{int(s['admitted'])} admitted, {int(s['rejected'])} rejected; "
            f"invariant {'OK' if self.ok else 'VIOLATED'}"
        )
        return "\n".join(lines)


class ScenarioRunner:
    """Replays a compiled campaign against one fabric orchestrator."""

    def __init__(
        self,
        fabric: FabricOrchestrator,
        traffic_packets: int = 0,
    ) -> None:
        self.fabric = fabric
        self.engine = ChurnEngine(fabric)
        #: Per-tenant packets injected at every phase boundary (0 = off).
        #: Needs a fabric with the data plane; with fast-path engines
        #: attached this is what drives campaign traffic through the
        #: compiled kernels end to end.
        self.traffic_packets = traffic_packets

    def _close_phase(self, phase: PhaseReport) -> None:
        sent, delivered, elapsed = probe_traffic(self.fabric, self.traffic_packets)
        if sent:
            phase.traffic_packets = sent
            phase.traffic_delivered = delivered
            phase.traffic_pps = sent / elapsed if elapsed > 0 else 0.0
            self.fabric.metrics.inc("scenario.traffic_packets", sent)
        phase.invariant_problems = self.fabric.check_invariant()
        if phase.invariant_problems:
            self.fabric.metrics.inc("scenario.invariant_violations")
        phase.digest = self.fabric.digest()

    def run(self, campaign: CompiledCampaign) -> CampaignReport:
        """Apply every event in order; returns the campaign report with
        one :class:`PhaseReport` per phase marker encountered."""
        report = CampaignReport(
            scenario=campaign.spec.name,
            seed=campaign.seed,
            trace_digest=campaign.digest(),
        )
        bounds = {
            name: (start, end)
            for name, start, end in campaign.spec.phase_bounds()
        }
        current: PhaseReport | None = None
        start_wall = time.perf_counter()
        for event in campaign.events:
            if event.kind is EventKind.PHASE:
                if current is not None:
                    self._close_phase(current)
                start, end = bounds.get(event.phase, (event.time_s, event.time_s))
                current = PhaseReport(name=event.phase, start_s=start, end_s=end)
                report.phases.append(current)
                self.fabric.metrics.inc("scenario.phases")
            elif current is None:
                raise ScenarioError(
                    f"event at t={event.time_s} precedes the first phase marker"
                )
            else:
                self.engine.apply(event, current.churn)
        if current is not None:
            self._close_phase(current)
        report.wall_seconds = time.perf_counter() - start_wall
        for phase in report.phases:
            phase.churn.wall_seconds = report.wall_seconds * (
                phase.churn.num_events / max(1, sum(
                    p.churn.num_events for p in report.phases
                ))
            )
        report.final_digest = self.fabric.digest()
        return report


def run_campaign(
    spec: ScenarioSpec,
    seed: int | None = None,
    with_dataplane: bool = False,
    wal_dir: str | None = None,
    fsync: str = "batch",
    partitioner: str | None = None,
    fastpath: bool = False,
    traffic_packets: int = 0,
) -> tuple[FabricOrchestrator, CampaignReport]:
    """Compile ``spec``, build its fabric (journaling to ``wal_dir`` when
    given) and replay the campaign; returns the live fabric and the
    report.

    ``fastpath=True`` attaches a compiled fast-path engine to every shard
    pipeline, and ``traffic_packets`` injects that many packets per live
    tenant at each phase boundary; both imply the data plane.  Together
    they make campaign phases exercise the compiled kernels end to end.
    """
    campaign = compile_scenario(spec, seed)
    fabric = build_fabric(
        spec,
        with_dataplane=with_dataplane or fastpath or traffic_packets > 0,
        partitioner=partitioner,
        fastpath=fastpath,
    )
    durability = None
    if wal_dir is not None:
        from repro.durability import FabricDurability

        durability = FabricDurability(wal_dir, fsync=fsync).attach(fabric)
    try:
        report = ScenarioRunner(fabric, traffic_packets=traffic_packets).run(campaign)
    finally:
        if durability is not None:
            durability.close()
    return fabric, report
