"""What a packet costs wire to wire outside the kernel: parse and deparse.

:func:`wire_us_per_pkt` times ``parse_packet`` and ``deparse_packet`` over a
batch of one frame shape, the way ``benchmarks/e2e/wl_pkt.py`` calls them
(one call per frame), and is importable so CI can print the figures::

    PYTHONPATH=src:. python -c "from tests.dataplane.test_wire_cost import \
wire_us_per_pkt as f; print({s: f(s) for s in ('plain_tcp', 'vlan_tcp')})"
"""

from __future__ import annotations

import time

from repro.dataplane.packet import Packet, PacketResult
from repro.dataplane.parser import (
    PROTO_TCP,
    PROTO_UDP,
    build_frame,
    build_vxlan_frame,
    deparse_packet,
    parse_packet,
)

FIELDS = dict(src_ip=0x0A000001, dst_ip=0x0A000002, src_port=40000, dst_port=80, dscp=10)

#: The four frame shapes the packet workloads carry, each 64 bytes or its
#: bare length when that is larger (VxLAN).
SHAPES = {
    "plain_tcp": lambda pad: build_frame(protocol=PROTO_TCP, payload=pad, **FIELDS),
    "vlan_tcp": lambda pad: build_frame(protocol=PROTO_TCP, vlan_id=7, payload=pad, **FIELDS),
    "vlan_udp": lambda pad: build_frame(protocol=PROTO_UDP, vlan_id=7, payload=pad, **FIELDS),
    "vxlan_tcp": lambda pad: build_vxlan_frame(7, protocol=PROTO_TCP, payload=pad, **FIELDS),
}


def wire_us_per_pkt(shape: str, packets: int = 4096, repeats: int = 5) -> tuple[float, float]:
    """Min-of-``repeats`` µs per packet of ``(parse, deparse)`` over a batch
    of ``packets`` frames of ``shape``; the deparse re-tags with the tenant's
    VLAN id, as the egress side of the packet workloads does."""
    build = SHAPES[shape]
    frames = [build(bytes(max(0, 64 - len(build(b"")))))] * packets
    parse = deparse = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        parsed = [parse_packet(f)[0] for f in frames]
        mid = time.perf_counter()
        for p in parsed:
            deparse_packet(p, 7)
        end = time.perf_counter()
        parse, deparse = min(parse, mid - start), min(deparse, end - mid)
    return parse / packets * 1e6, deparse / packets * 1e6


def test_every_shape_is_timed():
    for shape in SHAPES:
        parse, deparse = wire_us_per_pkt(shape, packets=64, repeats=1)
        assert parse > 0 and deparse > 0


def test_packet_records_are_slotted():
    packet = Packet()
    for record in (packet, PacketResult(packet, 1)):
        assert not hasattr(record, "__dict__"), type(record).__name__
