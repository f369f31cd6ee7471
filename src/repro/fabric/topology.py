"""The fabric's physical model: switches plus capacity-annotated links.

A :class:`FabricTopology` is the static wiring of a switch cluster: each
:class:`SwitchNode` carries its own :class:`~repro.core.spec.SwitchSpec` and
recirculation budget (clusters may be heterogeneous), and each
:class:`FabricLink` is an undirected inter-switch connection with its own
bandwidth capacity.  Links are pure description — the live load they carry
is tracked by the orchestrator through
:class:`~repro.core.state.LinkState`, mirroring how a
:class:`~repro.core.spec.SwitchSpec` describes a switch while
:class:`~repro.core.state.PipelineState` tracks its occupancy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.core.spec import SwitchSpec
from repro.errors import PlacementError

#: Canonical undirected link key: the sorted endpoint pair.
LinkKey = tuple[str, str]


def link_key(a: str, b: str) -> LinkKey:
    """The canonical (order-independent) key of the link between ``a`` and
    ``b``."""
    return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class SwitchNode:
    """One fabric switch: a name plus its pipeline spec and recirculation
    budget (the per-switch half of a :class:`ProblemInstance`)."""

    name: str
    spec: SwitchSpec = field(default_factory=SwitchSpec)
    max_recirculations: int = 2

    def __post_init__(self) -> None:
        if not self.name:
            raise PlacementError("fabric switches need a non-empty name")
        if self.max_recirculations < 0:
            raise PlacementError("max_recirculations must be >= 0")


@dataclass(frozen=True)
class FabricLink:
    """An undirected inter-switch link with a bandwidth capacity."""

    a: str
    b: str
    capacity_gbps: float = 400.0

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise PlacementError(f"self-link on switch {self.a!r}")
        if self.capacity_gbps <= 0:
            raise PlacementError(
                f"link {self.a!r}-{self.b!r}: capacity must be positive"
            )

    @property
    def key(self) -> LinkKey:
        return link_key(self.a, self.b)


class FabricTopology:
    """Validated switch-cluster wiring: named switches + undirected links."""

    def __init__(
        self, nodes: Iterable[SwitchNode], links: Iterable[FabricLink] = ()
    ) -> None:
        self.nodes: dict[str, SwitchNode] = {}
        for node in nodes:
            if node.name in self.nodes:
                raise PlacementError(f"duplicate switch name {node.name!r}")
            self.nodes[node.name] = node
        if not self.nodes:
            raise PlacementError("a fabric needs at least one switch")
        self.links: dict[LinkKey, FabricLink] = {}
        for link in links:
            for end in (link.a, link.b):
                if end not in self.nodes:
                    raise PlacementError(
                        f"link endpoint {end!r} is not a fabric switch"
                    )
            if link.key in self.links:
                raise PlacementError(
                    f"duplicate link between {link.a!r} and {link.b!r}"
                )
            self.links[link.key] = link

    # ------------------------------------------------------------------
    @property
    def switch_names(self) -> list[str]:
        """All switch names, sorted (the canonical fabric iteration order)."""
        return sorted(self.nodes)

    def neighbors(self, name: str) -> list[str]:
        """Switches adjacent to ``name``, sorted."""
        if name not in self.nodes:
            raise PlacementError(f"unknown switch {name!r}")
        out = set()
        for a, b in self.links:
            if a == name:
                out.add(b)
            elif b == name:
                out.add(a)
        return sorted(out)

    def __repr__(self) -> str:
        return (
            f"FabricTopology(switches={len(self.nodes)}, "
            f"links={len(self.links)})"
        )

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------
    @classmethod
    def full_mesh(
        cls,
        num_switches: int,
        spec: SwitchSpec | None = None,
        link_capacity_gbps: float = 400.0,
        max_recirculations: int = 2,
    ) -> "FabricTopology":
        """A homogeneous fully connected fabric of ``num_switches`` switches
        named ``sw0 .. sw{n-1}`` (the default shape for experiments)."""
        if num_switches < 1:
            raise PlacementError("a fabric needs at least one switch")
        spec = spec if spec is not None else SwitchSpec()
        names = [f"sw{i}" for i in range(num_switches)]
        nodes = [
            SwitchNode(name, spec=spec, max_recirculations=max_recirculations)
            for name in names
        ]
        links = [
            FabricLink(names[i], names[j], capacity_gbps=link_capacity_gbps)
            for i in range(num_switches)
            for j in range(i + 1, num_switches)
        ]
        return cls(nodes, links)

    @classmethod
    def ring(
        cls,
        num_switches: int,
        spec: SwitchSpec | None = None,
        link_capacity_gbps: float = 400.0,
        max_recirculations: int = 2,
    ) -> "FabricTopology":
        """A ring fabric (each switch linked to its two neighbours) — the
        sparse topology for exercising link-constrained stitching."""
        if num_switches < 1:
            raise PlacementError("a fabric needs at least one switch")
        spec = spec if spec is not None else SwitchSpec()
        names = [f"sw{i}" for i in range(num_switches)]
        nodes = [
            SwitchNode(name, spec=spec, max_recirculations=max_recirculations)
            for name in names
        ]
        links = []
        if num_switches == 2:
            links = [FabricLink(names[0], names[1], link_capacity_gbps)]
        elif num_switches > 2:
            links = [
                FabricLink(
                    names[i], names[(i + 1) % num_switches], link_capacity_gbps
                )
                for i in range(num_switches)
            ]
        return cls(nodes, links)
