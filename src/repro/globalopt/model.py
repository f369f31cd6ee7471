"""Compact fleet model for the global re-optimizer.

:func:`snapshot_fabric` freezes a live :class:`~repro.fabric.orchestrator.
FabricOrchestrator` into pure data the solver can search over without
touching any shard: per-switch headroom (SRAM blocks, virtual stages,
backplane Gbps), per-link residual bandwidth, and one
:class:`TenantFootprint` per live tenant (chain shape, rule counts,
bandwidth, current placement).

The model is deliberately *advisory*: block demand mirrors the shard's
consolidated accounting — ``ceil(total_rules / entries_per_block)`` per
segment (same-type rules share blocks, so a segment's marginal cost is near
its pooled-rule charge) — and backplane demand is ``ceil(L / S) * bw`` (the
fold-minimal pass count).  Baselines are exact —
:meth:`Usage.from_current` starts from the shards' *actual* occupancy —
but the per-tenant estimates do not capture cross-tenant sharing or the
physical-block reserve, and they do not need to: the migration executor
re-validates every step against the *real* shards with transactional
rollback, so a mis-estimate can only cost a skipped or rolled-back move,
never a broken fabric.

:func:`route` is the SFC-constrained shortest-path router (Sallam et al.,
arXiv:1801.05795): stitched segments may live on *non-adjacent* switches,
with every link of the connecting path charged the tenant's bandwidth —
the multi-hop generalization of the admission-time stitcher's
adjacent-only rule.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from repro.core.state import stable_digest
from repro.fabric.topology import LinkKey, link_key

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.fabric.orchestrator import FabricOrchestrator

#: Float slack for capacity comparisons (mirrors ``LinkState.fits``).
EPS = 1e-9


@dataclass(frozen=True)
class SwitchModel:
    """One switch's static capacities, as the solver sees them."""

    name: str
    stages: int
    virtual_stages: int
    total_blocks: int
    entries_per_block: int
    capacity_gbps: float
    drained: bool = False
    #: *Actual* occupancy at snapshot time, straight from the shard's
    #: pipeline accounting.  ``Usage.from_current`` starts from these so
    #: headroom reflects cross-tenant block sharing the per-tenant
    #: advisory estimates cannot see.
    used_blocks: int = 0
    used_backplane_gbps: float = 0.0


@dataclass(frozen=True)
class TenantFootprint:
    """One live tenant's resource shape, detached from any placement."""

    tenant_id: int
    nf_types: tuple[int, ...]
    rules: tuple[int, ...]
    bandwidth_gbps: float
    #: Digest of the full chain at snapshot time; the executor uses it to
    #: detect a chain that changed between planning and execution.
    sfc_digest: str = ""

    @property
    def length(self) -> int:
        return len(self.nf_types)

    @property
    def total_rules(self) -> int:
        return sum(self.rules)


@dataclass(frozen=True)
class TenantPlan:
    """One tenant's (current or proposed) fleet placement: a single home
    switch (``split == 0``) or a head/tail pair cut at ``split`` with the
    connecting multi-hop path's links in ``links``."""

    tenant_id: int
    switches: tuple[str, ...]
    split: int = 0
    links: tuple[LinkKey, ...] = ()

    @property
    def stitched(self) -> bool:
        return len(self.switches) > 1


@dataclass(frozen=True)
class FabricModel:
    """The frozen fleet snapshot the solver and planner work on."""

    switches: dict[str, SwitchModel]
    tenants: dict[int, TenantFootprint]
    current: dict[int, TenantPlan]
    link_capacity: dict[LinkKey, float]
    adjacency: dict[str, tuple[str, ...]]
    #: Actual per-link load at snapshot time (``Usage.from_current`` seed).
    link_load: dict[LinkKey, float] = field(default_factory=dict)

    @property
    def active(self) -> list[str]:
        """Sorted names of non-drained switches."""
        return sorted(n for n, s in self.switches.items() if not s.drained)

    # -- per-(tenant, switch) demand ---------------------------------
    def blocks_needed(self, rules: Iterable[int], switch: str) -> int:
        """SRAM blocks one segment's rule lists occupy on ``switch``."""
        sw = self.switches[switch]
        rules = tuple(rules)
        if not rules:
            return 0
        return max(1, math.ceil(sum(rules) / sw.entries_per_block))

    def passes_needed(self, length: int, switch: str) -> int:
        """Pipeline passes a ``length``-NF segment needs on ``switch``."""
        return math.ceil(length / self.switches[switch].stages)

    def backplane_needed(self, foot_slice_len: int, bw: float, switch: str) -> float:
        """Backplane Gbps a segment consumes: passes x tenant bandwidth."""
        return self.passes_needed(foot_slice_len, switch) * bw

    def fits_stages(self, length: int, switch: str) -> bool:
        """Whether the segment fits the switch's virtual stage budget."""
        return length <= self.switches[switch].virtual_stages

    def plan_demands(
        self, plan: TenantPlan
    ) -> list[tuple[str, tuple[int, ...], int]]:
        """Per-switch demand of a plan: ``(switch, rules, length)`` for each
        segment (one entry for single-home plans)."""
        foot = self.tenants[plan.tenant_id]
        if not plan.stitched:
            return [(plan.switches[0], foot.rules, foot.length)]
        at = plan.split
        return [
            (plan.switches[0], foot.rules[:at], at),
            (plan.switches[1], foot.rules[at:], foot.length - at),
        ]


class Usage:
    """Mutable fleet accounting over a :class:`FabricModel`: per-switch
    blocks/backplane in use and per-link load.

    :meth:`from_current` seeds blocks/backplane/links from the snapshot's
    *actual* shard occupancy (cross-tenant block sharing included), then
    applies per-tenant advisory deltas on :meth:`release`/:meth:`charge` —
    so the baseline is exact and only the marginal cost of a proposed
    change is estimated.  The planner clones one to prove every
    intermediate migration state fits; the ILP uses an empty one (advisory
    sums) when re-assigning the whole fleet from scratch.
    """

    def __init__(self, model: FabricModel) -> None:
        self.model = model
        self.blocks: dict[str, int] = {name: 0 for name in model.switches}
        self.backplane: dict[str, float] = {
            name: 0.0 for name in model.switches
        }
        self.link_load: dict[LinkKey, float] = {
            key: 0.0 for key in model.link_capacity
        }

    @classmethod
    def from_current(cls, model: FabricModel) -> "Usage":
        """Accounting of the fleet as currently placed: actual occupancy
        from the snapshot."""
        usage = cls(model)
        for name, sw in model.switches.items():
            usage.blocks[name] = sw.used_blocks
            usage.backplane[name] = sw.used_backplane_gbps
        for key in usage.link_load:
            usage.link_load[key] = model.link_load.get(key, 0.0)
        return usage

    def clone(self) -> "Usage":
        """Independent deep copy (the planner's transient-replay scratch)."""
        other = Usage.__new__(Usage)
        other.model = self.model
        other.blocks = dict(self.blocks)
        other.backplane = dict(self.backplane)
        other.link_load = dict(self.link_load)
        return other

    # -- mutation ----------------------------------------------------
    def charge(self, plan: TenantPlan) -> None:
        """Account ``plan``'s blocks/backplane/link demand as occupied."""
        foot = self.model.tenants[plan.tenant_id]
        for switch, rules, length in self.model.plan_demands(plan):
            self.blocks[switch] += self.model.blocks_needed(rules, switch)
            self.backplane[switch] += self.model.backplane_needed(
                length, foot.bandwidth_gbps, switch
            )
        for key in plan.links:
            self.link_load[key] += foot.bandwidth_gbps

    def release(self, plan: TenantPlan) -> None:
        """Return ``plan``'s blocks/backplane/link demand to the pool."""
        foot = self.model.tenants[plan.tenant_id]
        for switch, rules, length in self.model.plan_demands(plan):
            self.blocks[switch] -= self.model.blocks_needed(rules, switch)
            self.backplane[switch] -= self.model.backplane_needed(
                length, foot.bandwidth_gbps, switch
            )
        for key in plan.links:
            self.link_load[key] -= foot.bandwidth_gbps

    # -- feasibility -------------------------------------------------
    def segment_fits(
        self,
        foot: TenantFootprint,
        switch: str,
        rules: tuple[int, ...],
        length: int,
    ) -> bool:
        """Whether one chain segment fits ``switch`` right now: drain
        state, virtual stages, SRAM blocks and backplane headroom."""
        sw = self.model.switches[switch]
        if sw.drained:
            return False
        if not self.model.fits_stages(length, switch):
            return False
        if (
            self.blocks[switch] + self.model.blocks_needed(rules, switch)
            > sw.total_blocks
        ):
            return False
        demand = self.model.backplane_needed(
            length, foot.bandwidth_gbps, switch
        )
        return self.backplane[switch] + demand <= sw.capacity_gbps + EPS

    def link_fits(self, key: LinkKey, bw: float) -> bool:
        """Whether ``bw`` more Gbps fits on link ``key``."""
        return (
            self.link_load[key] + bw
            <= self.model.link_capacity[key] + EPS
        )

    def utilization(self, switch: str) -> float:
        """Backplane utilization fraction (the balance term's currency)."""
        sw = self.model.switches[switch]
        return self.backplane[switch] / sw.capacity_gbps if sw.capacity_gbps else 0.0


def route(
    model: FabricModel,
    usage: Usage,
    src: str,
    dst: str,
    bw: float,
) -> tuple[LinkKey, ...] | None:
    """SFC-constrained shortest path from ``src`` to ``dst``: fewest hops
    over links with residual bandwidth for ``bw``, deterministic (sorted
    neighbor order) so replans are reproducible.  Returns the path's link
    keys, or ``None`` when no feasible path exists."""
    if src == dst:
        return None
    parent: dict[str, str] = {src: src}
    queue = deque([src])
    while queue:
        here = queue.popleft()
        for nxt in model.adjacency.get(here, ()):
            if nxt in parent:
                continue
            key = link_key(here, nxt)
            if not usage.link_fits(key, bw):
                continue
            parent[nxt] = here
            if nxt == dst:
                path: list[LinkKey] = []
                node = dst
                while node != src:
                    path.append(link_key(parent[node], node))
                    node = parent[node]
                return tuple(reversed(path))
            queue.append(nxt)
    return None


def current_plan(record) -> TenantPlan:
    """The :class:`TenantPlan` a live fabric directory record encodes."""
    segments = record.segments
    if len(segments) == 1:
        return TenantPlan(
            tenant_id=record.sfc.tenant_id,
            switches=(segments[0].switch,),
        )
    return TenantPlan(
        tenant_id=record.sfc.tenant_id,
        switches=tuple(seg.switch for seg in segments),
        split=segments[1].start,
        links=tuple(record.links),
    )


def snapshot_fabric(fabric: "FabricOrchestrator") -> FabricModel:
    """Freeze the live fabric into a :class:`FabricModel`.  The caller must
    hold the fabric lock (or otherwise guarantee quiescence) so the
    snapshot is a consistent cut."""
    switches = {}
    for name in fabric.topology.switch_names:
        node = fabric.topology.nodes[name]
        shard = fabric.shards[name]
        spec = node.spec
        switches[name] = SwitchModel(
            name=name,
            stages=spec.stages,
            virtual_stages=shard.base.virtual_stages,
            total_blocks=spec.stages * spec.blocks_per_stage,
            entries_per_block=spec.entries_per_block,
            capacity_gbps=spec.capacity_gbps,
            drained=name in fabric.drained,
            used_blocks=sum(
                shard.state.blocks_at_stage(s) for s in range(spec.stages)
            ),
            used_backplane_gbps=shard.state.backplane_gbps,
        )
    tenants = {}
    current = {}
    for tenant_id in sorted(fabric.tenants):
        record = fabric.tenants[tenant_id]
        sfc = record.sfc
        tenants[tenant_id] = TenantFootprint(
            tenant_id=tenant_id,
            nf_types=tuple(sfc.nf_types),
            rules=tuple(sfc.rules),
            bandwidth_gbps=sfc.bandwidth_gbps,
            sfc_digest=stable_digest(sfc.to_dict()),
        )
        current[tenant_id] = current_plan(record)
    adjacency = {
        name: tuple(fabric.topology.neighbors(name))
        for name in fabric.topology.switch_names
    }
    return FabricModel(
        switches=switches,
        tenants=tenants,
        current=current,
        link_capacity={
            key: link.capacity_gbps for key, link in fabric.links.items()
        },
        adjacency=adjacency,
        link_load={
            key: link.load_gbps for key, link in fabric.links.items()
        },
    )


__all__ = [
    "FabricModel",
    "SwitchModel",
    "TenantFootprint",
    "TenantPlan",
    "Usage",
    "current_plan",
    "route",
    "snapshot_fabric",
]
