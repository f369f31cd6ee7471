"""Cross-switch chain stitching: split a logical SFC at a fold boundary.

When no single switch can host a tenant's chain — too long for one
switch's ``K = S·(R+1)`` virtual stages, or no shard has the SRAM /
backplane for it — the fabric splits the *logical* chain into two
contiguous segments and places each through the normal per-switch admit
path.  The split point prefers **fold boundaries** (multiples of the
physical stage count ``S``): a chain folded at stage ``S`` would have paid
one full recirculation pass on a single switch, so cutting there converts
the most expensive fold into an inter-switch hop instead of an in-switch
recirculation — the hop is charged to the link, the surviving folds to
each segment's own backplane, reusing the recirculation-amplification
accounting of :mod:`repro.core.state` on both sides.

Planning is read-only (shards are probed via
:meth:`~repro.controller.controller.SfcController.can_host`); the
orchestrator commits a returned :class:`StitchPlan` by admitting both
segments and charging the link.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.spec import SFC
from repro.errors import PlacementError
from repro.fabric.topology import LinkKey, link_key

if TYPE_CHECKING:  # pragma: no cover — import cycle guard
    from repro.fabric.orchestrator import FabricOrchestrator


def split_points(length: int, stages: int) -> list[int]:
    """Candidate split indices ``1 .. length-1``, fold boundaries first.

    Within each class (fold / non-fold) the more balanced split wins, so
    the planner tries the cheapest, most even cuts before degenerate ones.
    """
    if length < 2:
        return []
    balance = lambda j: (abs(2 * j - length), j)  # noqa: E731 — local sort key
    candidates = range(1, length)
    folds = sorted((j for j in candidates if j % stages == 0), key=balance)
    rest = sorted((j for j in candidates if j % stages != 0), key=balance)
    return folds + rest


def split_chain(sfc: SFC, at: int) -> tuple[SFC, SFC]:
    """Cut ``sfc`` into head (positions ``< at``) and tail (``>= at``)
    segments.  Both keep the tenant's ID and full bandwidth — every packet
    of the tenant traverses both segments."""
    if not 1 <= at <= sfc.length - 1:
        raise PlacementError(
            f"split index {at} outside [1, {sfc.length - 1}] for {sfc.name!r}"
        )
    head = SFC(
        name=f"{sfc.name}#head",
        nf_types=sfc.nf_types[:at],
        rules=sfc.rules[:at],
        bandwidth_gbps=sfc.bandwidth_gbps,
        tenant_id=sfc.tenant_id,
    )
    tail = SFC(
        name=f"{sfc.name}#tail",
        nf_types=sfc.nf_types[at:],
        rules=sfc.rules[at:],
        bandwidth_gbps=sfc.bandwidth_gbps,
        tenant_id=sfc.tenant_id,
    )
    return head, tail


@dataclass(frozen=True)
class StitchPlan:
    """A committed-to-nothing stitching decision: where to cut the chain
    and which adjacent pair of switches hosts the two segments."""

    split: int
    head_switch: str
    tail_switch: str
    head: SFC
    tail: SFC
    link: LinkKey


def plan_stitch(
    fabric: "FabricOrchestrator", sfc: SFC, order: list[str]
) -> StitchPlan | None:
    """Find a feasible two-segment stitching of ``sfc``, or ``None``.

    Split points are tried fold-boundaries-first; for each cut, head hosts
    follow the partitioner's preference ``order`` and tail hosts must be
    *adjacent* to the head with enough residual link capacity for the
    tenant's bandwidth.  Heads and tails come only from the shards with
    backplane room for one pass of the tenant — every segment needs at
    least one, so ``can_host`` would refuse the others.  Those tails are
    worked out once per call, a head with none is never probed, and with
    no linked pair of such shards no split is built.  All probes are
    non-mutating (``can_host``), so a failed search leaves no trace on any
    shard.
    """
    if sfc.length < 2 or len(order) < 2:
        return None
    rank = {
        name: i
        for i, name in enumerate(order)
        if fabric.shards[name].state.backplane_fits(sfc.bw_bps)
    }
    tails: dict[str, list[str]] = {}
    for (a, b), link in fabric.links.items():
        if a in rank and b in rank and link.fits(sfc.bw_bps):
            tails.setdefault(a, []).append(b)
            tails.setdefault(b, []).append(a)
    if not tails:
        return None
    for linked in tails.values():
        linked.sort(key=rank.__getitem__)
    stages = min(fabric.topology.nodes[name].spec.stages for name in order)
    for at in split_points(sfc.length, stages):
        head, tail = split_chain(sfc, at)
        for head_switch in order:
            if head_switch not in tails or not fabric.shards[head_switch].can_host(head):
                continue
            for tail_switch in tails[head_switch]:
                if fabric.shards[tail_switch].can_host(tail):
                    return StitchPlan(
                        split=at,
                        head_switch=head_switch,
                        tail_switch=tail_switch,
                        head=head,
                        tail=tail,
                        link=link_key(head_switch, tail_switch),
                    )
    return None
