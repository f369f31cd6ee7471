"""The parser's two outward seams: hostile bytes at ingress, out-of-range
header values at egress.  Both must end in a typed ``DataPlaneError``."""

from __future__ import annotations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.dataplane.packet import Packet
from repro.dataplane.parser import (
    PROTO_TCP,
    PROTO_UDP,
    VXLAN_PORT,
    build_frame,
    build_ipv4_l4,
    build_vxlan_frame,
    deparse_packet,
    parse_packet,
)
from repro.errors import DataPlaneError

ips = st.integers(0, 2**32 - 1)
ports = st.integers(0, 65535)
protocols = st.sampled_from([PROTO_TCP, PROTO_UDP])
vlans = st.one_of(st.none(), st.integers(0, 4095))


@st.composite
def frames(draw) -> bytes:
    """A valid frame of any shape the builders make, with any payload."""
    fields = dict(
        src_ip=draw(ips), dst_ip=draw(ips), src_port=draw(ports),
        dst_port=draw(ports), protocol=draw(protocols), dscp=draw(st.integers(0, 63)),
        payload=draw(st.binary(max_size=64)),
    )
    if draw(st.booleans()):
        return build_vxlan_frame(draw(st.integers(0, 2**24 - 1)), **fields)
    return build_frame(vlan_id=draw(vlans), **fields)


@given(frame=frames(), data=st.data())
@settings(max_examples=300, deadline=None)
def test_mutated_or_truncated_frame_parses_or_raises_typed(frame, data):
    wire = bytearray(frame)
    for _ in range(data.draw(st.integers(0, 6))):
        wire[data.draw(st.integers(0, len(wire) - 1))] = data.draw(st.integers(0, 255))
    wire = wire[: data.draw(st.integers(0, len(wire)))]
    try:
        packet, headers = parse_packet(bytes(wire))
    except DataPlaneError:
        return
    assert isinstance(packet, Packet)
    assert packet.size_bytes == len(wire)
    assert headers.stack[0] == "ethernet"


@given(
    src=ips, dst=ips, sport=ports, dport=ports, proto=protocols,
    dscp=st.integers(0, 63), vlan=vlans, default=st.integers(0, 2**24 - 1),
)
@settings(max_examples=200, deadline=None)
def test_deparse_then_parse_returns_every_written_field(
    src, dst, sport, dport, proto, dscp, vlan, default
):
    # A UDP frame to 4789 is VxLAN by definition, and the deparser writes none.
    assume(not (proto == PROTO_UDP and dport == VXLAN_PORT))
    sent = Packet(
        tenant_id=7, src_ip=src, dst_ip=dst, src_port=sport, dst_port=dport,
        protocol=proto, dscp=dscp,
    )
    wire = deparse_packet(sent, vlan)
    got, headers = parse_packet(wire, default_tenant=default)
    assert got.five_tuple() == sent.five_tuple()
    assert got.dscp == dscp
    assert got.tenant_id == (default if vlan is None else vlan)
    assert headers.vlan_id == vlan
    assert got.size_bytes == len(wire)


@pytest.mark.parametrize(
    "build, field, value",
    [
        (lambda: deparse_packet(Packet(dscp=64)), "dscp", 64),
        (lambda: deparse_packet(Packet(dscp=-1), vlan_id=3), "dscp", -1),
        (lambda: deparse_packet(Packet(src_port=70000)), "src_port", 70000),
        (lambda: build_frame(1, 2, 3, 70000, protocol=PROTO_UDP, vlan_id=9), "dst_port", 70000),
        (lambda: build_ipv4_l4(2**32, 2, 3, 4), "src_ip", 2**32),
        (lambda: build_frame(1, -5, 3, 4), "dst_ip", -5),
        (lambda: build_frame(1, 2, 3, 4, payload=bytes(65_496)), "IPv4 total length", 65_536),
        (lambda: build_vxlan_frame(5, src_ip=1, dst_ip=2, src_port=3, dst_port=4, dscp=99),
         "dscp", 99),
    ],
    ids=["dscp-64", "dscp-negative", "sport", "dport-vlan", "ip-2**32", "ip-negative",
         "total-length", "vxlan-inner-dscp"],
)
def test_out_of_range_header_value_raises_typed_error(build, field, value):
    with pytest.raises(DataPlaneError) as err:
        build()
    assert f"{field} {value}" in str(err.value)
