"""Packets and per-packet metadata.

A :class:`Packet` is the parsed form the pipeline operates on: standard
5-tuple header fields plus the outer encapsulation's tenant ID (the paper
assumes tenant traffic is classifiable by VLAN/VxLAN/GRE headers, uniformly
called *tenant ID*), and the SFP metadata — most importantly ``pass_id``, the
recirculation pass counter every virtualized rule matches on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import DataPlaneError

if TYPE_CHECKING:  # pragma: no cover
    from repro.telemetry.postcards import PacketPostcard

#: Header/metadata fields a match key may reference.
MATCHABLE_FIELDS = (
    "tenant_id",
    "pass_id",
    "src_ip",
    "dst_ip",
    "src_port",
    "dst_port",
    "protocol",
    "dscp",
)


@dataclass(slots=True)
class Packet:
    """A parsed packet traversing the pipeline (mutable: actions rewrite it;
    slotted: one is built per frame)."""

    tenant_id: int = 0
    src_ip: int = 0
    dst_ip: int = 0
    src_port: int = 0
    dst_port: int = 0
    protocol: int = 6
    dscp: int = 0
    size_bytes: int = 64
    #: Arrival time (ns) — drives time-dependent externs (meters).
    timestamp_ns: float = 0.0
    # --- SFP metadata -------------------------------------------------
    #: Recirculation pass, 1-based ("pass" in Fig. 3's match keys).
    pass_id: int = 1
    #: Set by a matched rule's REC argument; consumed at end of pipeline.
    recirculate: bool = False
    #: Set by a drop action; stops processing.
    dropped: bool = False
    #: Egress port chosen by forwarding actions (None = not yet routed).
    egress_port: int | None = None
    #: Free-form scratch for NF state interactions (e.g. LB pool pick).
    scratch: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise DataPlaneError(f"packet size must be positive, got {self.size_bytes}")
        if self.pass_id < 1:
            raise DataPlaneError("pass_id is 1-based")

    def get_field(self, name: str) -> int:
        """Read a matchable field by name (match-key evaluation)."""
        if name not in MATCHABLE_FIELDS:
            raise DataPlaneError(f"unknown match field {name!r}")
        return int(getattr(self, name))

    def set_field(self, name: str, value: int) -> None:
        """Write a header field (action execution).  Metadata fields that
        actions must not touch directly (pass_id) are rejected."""
        if name not in MATCHABLE_FIELDS or name == "pass_id":
            raise DataPlaneError(f"field {name!r} is not writable by actions")
        setattr(self, name, int(value))

    def five_tuple(self) -> tuple[int, int, int, int, int]:
        """The classic (src, dst, sport, dport, proto) flow key."""
        return (self.src_ip, self.dst_ip, self.src_port, self.dst_port, self.protocol)


@dataclass(slots=True)
class PacketResult:
    """Outcome of pushing one packet through the pipeline (slotted)."""

    packet: Packet
    #: Pipeline passes consumed (1 = no recirculation).
    passes: int
    #: ``(pass, stage, table, action)`` application trace, in order.
    trace: list[tuple[int, int, str, str]] = field(default_factory=list)
    #: Modeled processing latency (ns), filled by the latency model.
    latency_ns: float = 0.0
    #: The INT-style per-hop record, present when the packet was traced or
    #: sampled by the pipeline's :class:`PostcardCollector` (``trace`` above
    #: is derived from it — the legacy flag is a thin wrapper).
    postcard: "PacketPostcard | None" = None

    @property
    def delivered(self) -> bool:
        return not self.packet.dropped

    @property
    def recirculations(self) -> int:
        return self.passes - 1

    def applied_tables(self) -> list[str]:
        """Names of tables whose non-default actions fired, in order."""
        return [t for (_, _, t, a) in self.trace if a != "no_op"]
