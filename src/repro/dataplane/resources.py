"""Per-stage SRAM resource accounting.

A stage owns ``blocks_total`` uniform SRAM blocks of ``entries_per_block``
rule entries each (the paper's ``B`` blocks of ``E/b`` entries).  Physical
NFs reserve whole blocks; tenant rules consume entries inside the owning
NF's reservation, growing it block-by-block.  This mirrors the consolidated
memory accounting of Eq. (24): all tenants' rules for one NF share its
blocks, so fragmentation only occurs at NF granularity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import ResourceExhaustedError


@dataclass
class Reservation:
    """One physical NF's slice of a stage's SRAM."""

    owner: str
    blocks: int = 1
    entries_used: int = 0
    #: The blocks reserved at boot: refunds never shrink below them.
    boot: int = 1


@dataclass
class StageResources:
    """SRAM block allocator for one MAU stage."""

    blocks_total: int = 20
    entries_per_block: int = 1000
    reservations: dict[str, Reservation] = field(default_factory=dict)

    @property
    def blocks_used(self) -> int:
        return sum(r.blocks for r in self.reservations.values())

    @property
    def blocks_free(self) -> int:
        return self.blocks_total - self.blocks_used

    @property
    def entries_used(self) -> int:
        return sum(r.entries_used for r in self.reservations.values())

    @property
    def entry_utilization(self) -> float:
        used_blocks = self.blocks_used
        if used_blocks == 0:
            return 0.0
        return self.entries_used / (used_blocks * self.entries_per_block)

    def reserve(self, owner: str, blocks: int = 1) -> Reservation:
        """Reserve the initial block(s) for a physical NF at boot."""
        if owner in self.reservations:
            raise ResourceExhaustedError(f"{owner!r} already holds a reservation")
        if blocks < 1:
            raise ResourceExhaustedError("must reserve at least one block")
        if blocks > self.blocks_free:
            raise ResourceExhaustedError(
                f"stage has {self.blocks_free} free blocks, {owner!r} wants {blocks}"
            )
        reservation = Reservation(owner=owner, blocks=blocks, boot=blocks)
        self.reservations[owner] = reservation
        return reservation

    def release(self, owner: str) -> None:
        """Return a physical NF's blocks (switch reconfiguration only)."""
        if owner not in self.reservations:
            raise ResourceExhaustedError(f"no reservation for {owner!r}")
        del self.reservations[owner]

    def reservation_state(self, owner: str) -> tuple[int, int]:
        """``(entries_used, blocks)`` snapshot of ``owner``'s reservation —
        rollback support for atomic batch writes."""
        reservation = self.reservations.get(owner)
        if reservation is None:
            raise ResourceExhaustedError(f"no reservation for {owner!r}")
        return (reservation.entries_used, reservation.blocks)

    def reset_reservation_state(self, owner: str, state: tuple[int, int]) -> None:
        """Reset ``owner``'s reservation to a prior :meth:`reservation_state`
        snapshot.  No feasibility check: the snapshot was feasible when
        taken, and a rollback restores every touched reservation."""
        reservation = self.reservations.get(owner)
        if reservation is None:
            raise ResourceExhaustedError(f"no reservation for {owner!r}")
        reservation.entries_used, reservation.blocks = state

    def charge_entries(self, owner: str, count: int) -> None:
        """Account ``count`` new rule entries to ``owner``, growing its
        reservation by whole blocks as needed."""
        reservation = self.reservations.get(owner)
        if reservation is None:
            raise ResourceExhaustedError(f"no reservation for {owner!r}")
        if count < 0:
            raise ResourceExhaustedError(f"cannot charge {count} entries")
        new_entries = reservation.entries_used + count
        needed_blocks = max(1, math.ceil(new_entries / self.entries_per_block))
        growth = needed_blocks - reservation.blocks
        if growth > self.blocks_free:
            raise ResourceExhaustedError(
                f"{owner!r} needs {growth} more blocks, stage has {self.blocks_free}"
            )
        reservation.blocks = max(reservation.blocks, needed_blocks)
        reservation.entries_used = new_entries

    def refund_entries(self, owner: str, count: int) -> None:
        """Release ``count`` entries (tenant departure); shrinks the
        reservation down to the blocks still needed, never below its boot
        size (the physical NF keeps the blocks it reserved at boot)."""
        reservation = self.reservations.get(owner)
        if reservation is None:
            raise ResourceExhaustedError(f"no reservation for {owner!r}")
        if count < 0 or count > reservation.entries_used:
            raise ResourceExhaustedError(
                f"cannot refund {count} of {reservation.entries_used} entries"
            )
        reservation.entries_used -= count
        reservation.blocks = max(
            reservation.boot, math.ceil(reservation.entries_used / self.entries_per_block)
        )
