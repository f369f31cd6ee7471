"""Tenant → switch routing: the consistent-hash ring.

The ring does not *decide* where a tenant lands — it produces a
**preference order** over the fabric's active switches, and the orchestrator
walks that order with per-switch admission as the fallback: if the
preferred shard rejects (memory, backplane, chain length), the next-best
shard is tried and the spillover is recorded.

:class:`ConsistentHashPartitioner` is a classic consistent-hash ring with
virtual nodes.  Placement is a pure function of ``(tenant_id, active switch
set)``: sticky under churn, minimally disturbed when a switch is drained
(only that switch's arc re-homes), and needs no load feedback — so a
journalled op replays to the same shard, and the front end may route an
intent outside any fabric lock.  Hashes are ``blake2b``-based so the order
is stable across processes (Python's builtin ``hash`` is seed-randomized).
"""

from __future__ import annotations

import bisect
import hashlib
from typing import TYPE_CHECKING

from repro.core.spec import SFC
from repro.errors import PlacementError

if TYPE_CHECKING:  # pragma: no cover — import cycle guard (orchestrator imports us)
    from repro.fabric.orchestrator import FabricOrchestrator

#: Virtual nodes per switch on the ring.
REPLICAS = 64


def _stable_hash(key: str) -> int:
    """A process-stable 64-bit hash (builtin ``hash`` is seed-randomized)."""
    return int.from_bytes(
        hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest(), "big"
    )


class ConsistentHashPartitioner:
    """Hash-ring preference order with :data:`REPLICAS` virtual nodes per
    switch.  Walking the ring clockwise from the tenant's hash yields every
    active switch exactly once — the full admission-fallback order, not
    just the owner."""

    def __init__(self) -> None:
        self._ring_for: tuple[str, ...] = ()
        self._ring: list[tuple[int, str]] = []

    def _ring_over(self, names: tuple[str, ...]) -> list[tuple[int, str]]:
        if names != self._ring_for:
            points = [
                (_stable_hash(f"{name}#{r}"), name)
                for name in names
                for r in range(REPLICAS)
            ]
            points.sort()
            # Ring before key: concurrent routers (the front end calls
            # ``order`` outside any fabric lock) must never see the new
            # cache key paired with the old ring.
            self._ring = points
            self._ring_for = names
        return self._ring

    def order(self, sfc: SFC, fabric: "FabricOrchestrator") -> list[str]:
        """Ring walk from the tenant's hash: every active switch once,
        most-preferred first."""
        names = tuple(fabric.active_switches)
        if not names:
            return []
        ring = self._ring_over(names)
        start = bisect.bisect_right(ring, (_stable_hash(f"tenant-{sfc.tenant_id}"), ""))
        out: list[str] = []
        seen: set[str] = set()
        for i in range(len(ring)):
            name = ring[(start + i) % len(ring)][1]
            if name not in seen:
                seen.add(name)
                out.append(name)
                if len(out) == len(names):
                    break
        return out


#: Name → class, kept for the end-to-end benchmark, which builds its fleets
#: through :func:`make_partitioner`.
PARTITIONERS = {"hash": ConsistentHashPartitioner}


def make_partitioner(name: str) -> ConsistentHashPartitioner:
    """The ring, by its one registered name."""
    try:
        return PARTITIONERS[name]()
    except KeyError:
        raise PlacementError(
            f"unknown partitioner {name!r}; choices: {sorted(PARTITIONERS)}"
        ) from None
