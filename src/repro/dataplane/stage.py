"""MAU stages.

A :class:`Stage` hosts the physical NF tables installed on it and owns the
stage's SRAM (:class:`~repro.dataplane.resources.StageResources`).  Applying
a stage to a packet runs every resident table in installation order; a table
whose key does not match falls through to its default ``no_op`` — exactly the
paper's "default rule: not processing packets but forwarding them to the
next stage".
"""

from __future__ import annotations

from repro.dataplane.action import ActionRegistry
from repro.dataplane.packet import Packet
from repro.dataplane.resources import StageResources
from repro.dataplane.table import MatchActionTable
from repro.errors import DataPlaneError


class Stage:
    """One physical pipeline stage (MAU)."""

    def __init__(
        self,
        index: int,
        resources: StageResources | None = None,
        owner=None,
    ) -> None:
        if index < 0:
            raise DataPlaneError("stage index must be >= 0")
        self.index = index
        self.resources = resources if resources is not None else StageResources()
        self.tables: list[MatchActionTable] = []
        #: Owning :class:`~repro.dataplane.pipeline.SwitchPipeline` (when
        #: any): table install/remove bumps its ``structure_generation`` so
        #: the compiled fast path sees the pipeline's table walk changed.
        self.owner = owner

    def _bump_structure(self) -> None:
        if self.owner is not None:
            self.owner.structure_generation += 1

    def install_table(self, table: MatchActionTable, reserve_blocks: int = 1) -> None:
        """Install a physical NF's table, reserving its boot-time block(s)."""
        if any(t.name == table.name for t in self.tables):
            raise DataPlaneError(
                f"stage {self.index}: table {table.name!r} already installed"
            )
        self.resources.reserve(table.name, blocks=reserve_blocks)
        self.tables.append(table)
        self._bump_structure()

    def remove_table(self, name: str) -> MatchActionTable:
        """Uninstall a physical NF (reconfiguration), releasing its blocks."""
        for i, table in enumerate(self.tables):
            if table.name == name:
                self.resources.release(name)
                self._bump_structure()
                return self.tables.pop(i)
        raise DataPlaneError(f"stage {self.index}: no table named {name!r}")

    def table(self, name: str) -> MatchActionTable:
        """The resident table called ``name``; raises if absent."""
        for t in self.tables:
            if t.name == name:
                return t
        raise DataPlaneError(f"stage {self.index}: no table named {name!r}")

    def apply(
        self,
        packet: Packet,
        actions: ActionRegistry,
        pass_id: int,
        trace: list[tuple[int, int, str, str]] | None = None,
        card=None,
    ) -> None:
        """Run the stage's tables against ``packet`` (stops if dropped).

        ``card`` is an optional
        :class:`~repro.telemetry.postcards.PacketPostcard` under
        construction: each table application appends one hop (stage, table,
        hit/miss, matched rule id, action) — the INT-style telemetry hook
        the pipeline arms for traced or sampled packets.
        """
        for table in self.tables:
            if packet.dropped:
                return
            entry, action_name, params = table.lookup(packet)
            actions.resolve(action_name).fn(packet, params)
            if trace is not None:
                trace.append((pass_id, self.index, table.name, action_name))
            if card is not None:
                card.add_hop(
                    pass_id,
                    self.index,
                    table.name,
                    action_name,
                    hit=entry is not None,
                    rule_id=None if entry is None else table.entry_id(entry),
                )

    def __repr__(self) -> str:
        return (
            f"Stage({self.index}, tables={[t.name for t in self.tables]}, "
            f"blocks={self.resources.blocks_used}/{self.resources.blocks_total})"
        )
