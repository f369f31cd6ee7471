"""Action primitives.

Actions are the ALU side of a match-action unit.  Each is a named callable
``(packet, params) -> None`` mutating the packet; the registry maps the
action names used in :class:`~repro.dataplane.table.TableEntry` bindings to
implementations.

Every action accepts the SFP-specific ``rec`` parameter (the paper's REC
argument, §IV): when truthy and the packet is in its final stage, the
pipeline recirculates it and bumps ``pass_id``.  The flag is recorded here;
the pipeline consumes it at end of pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from repro.dataplane.packet import Packet
from repro.errors import DataPlaneError

ActionFn = Callable[[Packet, Mapping[str, object]], None]


def _apply_rec(packet: Packet, params: Mapping[str, object]) -> None:
    """Honor the REC argument appended to every last-stage action (§IV)."""
    if params.get("rec"):
        packet.recirculate = True


def act_no_op(packet: Packet, params: Mapping[str, object]) -> None:
    """Default physical-NF rule: forward to the next stage unchanged."""
    _apply_rec(packet, params)


def act_drop(packet: Packet, params: Mapping[str, object]) -> None:
    """Firewall deny."""
    packet.dropped = True


def act_permit(packet: Packet, params: Mapping[str, object]) -> None:
    """Firewall allow (explicit, so ACL hit stats distinguish from miss)."""
    _apply_rec(packet, params)


def act_set_tenant(packet: Packet, params: Mapping[str, object]) -> None:
    """Controller indirection (§V-E): rewrite the packet's outer tenant ID to
    the epoch-qualified *wire* ID (param ``wire_id``) that the tenant's
    currently-active rule generation matches on.  The rewrite survives
    recirculation, so every pass of a chain executes the same generation."""
    packet.set_field("tenant_id", int(params["wire_id"]))
    _apply_rec(packet, params)


def act_set_dscp(packet: Packet, params: Mapping[str, object]) -> None:
    """Traffic classifier: mark the DSCP codepoint (param ``dscp``)."""
    packet.set_field("dscp", int(params["dscp"]))
    _apply_rec(packet, params)


def act_set_dst(packet: Packet, params: Mapping[str, object]) -> None:
    """Load balancer: rewrite destination to a backend (params ``dst_ip``,
    optional ``dst_port``)."""
    packet.set_field("dst_ip", int(params["dst_ip"]))
    if "dst_port" in params:
        packet.set_field("dst_port", int(params["dst_port"]))
    _apply_rec(packet, params)


def act_snat(packet: Packet, params: Mapping[str, object]) -> None:
    """NAT: rewrite source address/port (params ``src_ip``, opt ``src_port``)."""
    packet.set_field("src_ip", int(params["src_ip"]))
    if "src_port" in params:
        packet.set_field("src_port", int(params["src_port"]))
    _apply_rec(packet, params)


def act_forward(packet: Packet, params: Mapping[str, object]) -> None:
    """Router: choose the egress port (param ``port``)."""
    packet.egress_port = int(params["port"])
    _apply_rec(packet, params)


def act_rate_limit(packet: Packet, params: Mapping[str, object]) -> None:
    """Rate limiter: charge a token bucket kept in ``scratch`` (params
    ``bucket`` name, ``rate_pps`` refill, ``burst`` depth).  The functional
    model charges one token per packet and drops on empty."""
    bucket = str(params.get("bucket", "default"))
    burst = int(params.get("burst", 1000))
    buckets = packet.scratch.setdefault("_buckets", {})
    tokens = buckets.get(bucket, burst)
    if tokens <= 0:
        packet.dropped = True
        return
    buckets[bucket] = tokens - 1
    _apply_rec(packet, params)


def act_meter_police(packet: Packet, params: Mapping[str, object]) -> None:
    """Rate limiter backed by a real :class:`~repro.dataplane.registers.MeterArray`
    extern (params: ``meter`` — the array, ``index``).  RED packets drop;
    YELLOW packets are demoted to best-effort DSCP 0; GREEN passes."""
    from repro.dataplane.registers import MeterColor

    meter = params["meter"]
    index = int(params.get("index", 0))
    color = meter.execute(index, packet.size_bytes, packet.timestamp_ns)
    if color is MeterColor.RED:
        packet.dropped = True
        return
    if color is MeterColor.YELLOW:
        packet.set_field("dscp", 0)
    _apply_rec(packet, params)


def act_count_extern(packet: Packet, params: Mapping[str, object]) -> None:
    """Monitor backed by a :class:`~repro.dataplane.registers.CounterArray`
    extern (params: ``counter`` — the array, ``index``)."""
    counter = params["counter"]
    counter.count(int(params.get("index", 0)), packet.size_bytes)
    _apply_rec(packet, params)


def act_count(packet: Packet, params: Mapping[str, object]) -> None:
    """Monitor: bump a named counter in ``scratch`` (param ``counter``)."""
    counter = str(params.get("counter", "default"))
    counters = packet.scratch.setdefault("_counters", {})
    counters[counter] = counters.get(counter, 0) + 1
    _apply_rec(packet, params)


@dataclass(frozen=True)
class ActionCall:
    """A resolved action about to run (kept for tracing/debugging)."""

    name: str
    fn: ActionFn


class ActionRegistry:
    """Name -> implementation map the pipeline resolves actions through."""

    def __init__(self) -> None:
        self._actions: dict[str, ActionCall] = {}

    def register(self, name: str, fn: ActionFn) -> None:
        """Add an action implementation under a unique name."""
        if name in self._actions:
            raise DataPlaneError(f"action {name!r} already registered")
        self._actions[name] = ActionCall(name=name, fn=fn)

    def resolve(self, name: str) -> ActionCall:
        """Look up an action by name; raises on unknown actions."""
        call = self._actions.get(name)
        if call is None:
            raise DataPlaneError(f"unknown action {name!r}")
        return call

    def names(self) -> list[str]:
        """All registered action names, sorted."""
        return sorted(self._actions)


def default_actions() -> ActionRegistry:
    """The registry with every built-in action installed."""
    registry = ActionRegistry()
    for name, fn in [
        ("no_op", act_no_op),
        ("drop", act_drop),
        ("permit", act_permit),
        ("set_tenant", act_set_tenant),
        ("set_dscp", act_set_dscp),
        ("set_dst", act_set_dst),
        ("snat", act_snat),
        ("forward", act_forward),
        ("rate_limit", act_rate_limit),
        ("meter_police", act_meter_police),
        ("count_extern", act_count_extern),
        ("count", act_count),
    ]:
        registry.register(name, fn)
    return registry
