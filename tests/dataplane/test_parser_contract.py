"""The parser's wire contract, pinned by recorded value.

Each expected value below is a constant recorded from the parser, not
recomputed by the test: the bytes every builder and the deparser emit
(blake2b over a seeded grid), every ``Packet`` field and ``ParsedHeaders``
value that parsing the grid yields, and the exact ``DataPlaneError`` message
of every truncation and every malformed header.  A rewrite of
``dataplane/parser.py`` that keeps these is wire-compatible with the one
that recorded them.

The grid: six shapes (plain and 802.1Q-tagged x TCP and UDP; VxLAN carrying
a TCP or a UDP inner frame) x the :class:`PacketSizeMix` sizes (payload
pads a frame up to the size) x a few seeded draws of every header field.
"""

from __future__ import annotations

import random
from hashlib import blake2b

import pytest

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
from repro.traffic.distributions import PacketSizeMix

SEED = 1234
DRAWS = 4
SHAPES = ("plain_tcp", "plain_udp", "vlan_tcp", "vlan_udp", "vxlan_tcp", "vxlan_udp")
PACKET_FIELDS = (
    "tenant_id", "src_ip", "dst_ip", "src_port", "dst_port", "protocol", "dscp",
    "size_bytes", "timestamp_ns", "pass_id", "recirculate", "dropped",
    "egress_port", "scratch",
)

STACKS = {
    "plain_tcp": ("ethernet", "ipv4", "tcp"),
    "plain_udp": ("ethernet", "ipv4", "udp"),
    "vlan_tcp": ("ethernet", "vlan", "ipv4", "tcp"),
    "vlan_udp": ("ethernet", "vlan", "ipv4", "udp"),
    "vxlan_tcp": ("ethernet", "ipv4", "udp", "vxlan", "inner_ethernet", "inner_ipv4", "inner_tcp"),
    "vxlan_udp": ("ethernet", "ipv4", "udp", "vxlan", "inner_ethernet", "inner_ipv4", "inner_udp"),
}

#: blake2b-128 digests recorded from the parser (see the module docstring).
FRAMES_DIGEST = "3cc7be9d6adbac64a480459fef94d2a2"
PARSED_DIGEST = "365306c198dba4a681eca0f8ea35a16e"
DEPARSED_DIGEST = "f3d640be882a1b7bb49226f67c7de6eb"

#: Per shape, the headers a bare frame (no payload) is cut through, in
#: order: ``(header, bytes needed, offset)``.  A prefix ending inside one is
#: rejected as truncated there; the whole bare frame parses.
TRUNCATION_SEGMENTS = {
    "plain_tcp": (("ethernet", 14, 0), ("ipv4", 20, 14), ("tcp", 20, 34)),
    "plain_udp": (("ethernet", 14, 0), ("ipv4", 20, 14), ("udp", 8, 34)),
    "vlan_tcp": (("ethernet", 14, 0), ("vlan", 4, 14), ("ipv4", 20, 18), ("tcp", 20, 38)),
    "vlan_udp": (("ethernet", 14, 0), ("vlan", 4, 14), ("ipv4", 20, 18), ("udp", 8, 38)),
    "vxlan_tcp": (
        ("ethernet", 14, 0), ("ipv4", 20, 14), ("udp", 8, 34), ("vxlan", 8, 42),
        ("inner ethernet", 14, 50), ("ipv4", 20, 64), ("tcp", 20, 84),
    ),
    "vxlan_udp": (
        ("ethernet", 14, 0), ("ipv4", 20, 14), ("udp", 8, 34), ("vxlan", 8, 42),
        ("inner ethernet", 14, 50), ("ipv4", 20, 64), ("udp", 8, 84),
    ),
}


def _fields(rng: random.Random, protocol: int) -> dict:
    while True:
        fields = dict(
            src_ip=rng.getrandbits(32), dst_ip=rng.getrandbits(32),
            src_port=rng.getrandbits(16), dst_port=rng.getrandbits(16),
            protocol=protocol, dscp=rng.randrange(64),
        )
        # A UDP frame to 4789 is VxLAN by definition; keep the plain shapes plain.
        if not (protocol == PROTO_UDP and fields["dst_port"] == VXLAN_PORT):
            return fields


def _build(shape: str, rng: random.Random, size: int) -> bytes:
    """One frame of ``shape`` with seeded header fields, padded to ``size``."""
    protocol = PROTO_TCP if shape.endswith("tcp") else PROTO_UDP
    fields = _fields(rng, protocol)
    if shape.startswith("vxlan"):
        vni = rng.getrandbits(24)
        outer = dict(outer_src_ip=rng.getrandbits(32), outer_dst_ip=rng.getrandbits(32))
        bare = len(build_vxlan_frame(vni, **outer, **fields))
        payload = rng.randbytes(max(0, size - bare))
        return build_vxlan_frame(vni, **outer, payload=payload, **fields)
    vlan_id = rng.randrange(4096) if shape.startswith("vlan") else None
    bare = len(build_frame(vlan_id=vlan_id, **fields))
    return build_frame(vlan_id=vlan_id, payload=rng.randbytes(max(0, size - bare)), **fields)


def _grid():
    """``(shape, frame, default_tenant, egress_vlan)`` over the seeded grid."""
    rng = random.Random(SEED)
    for shape in SHAPES:
        for size in PacketSizeMix().sizes:
            for _ in range(DRAWS):
                yield shape, _build(shape, rng, size), rng.randrange(1 << 20), rng.randrange(4096)


def _digest(chunks) -> str:
    h = blake2b(digest_size=16)
    for chunk in chunks:
        h.update(len(chunk).to_bytes(4, "big"))
        h.update(chunk)
    return h.hexdigest()


def _record(packet, headers) -> bytes:
    values = tuple(getattr(packet, name) for name in PACKET_FIELDS)
    return repr((values, headers.stack, headers.vlan_id, headers.vni)).encode()


def test_builder_bytes_are_pinned():
    assert _digest(frame for _, frame, _, _ in _grid()) == FRAMES_DIGEST


def test_parsed_fields_are_pinned():
    records = []
    for shape, frame, default_tenant, _ in _grid():
        packet, headers = parse_packet(frame, default_tenant=default_tenant)
        assert headers.stack == STACKS[shape]
        assert packet.size_bytes == len(frame)
        records.append(_record(packet, headers))
    assert _digest(records) == PARSED_DIGEST


def test_deparsed_bytes_are_pinned():
    out = []
    for _, frame, _, vlan_id in _grid():
        packet, _ = parse_packet(frame)
        out.append(deparse_packet(packet))
        out.append(deparse_packet(packet, vlan_id))
    assert _digest(out) == DEPARSED_DIGEST


@pytest.mark.parametrize("shape", SHAPES)
def test_every_prefix_rejects_with_the_recorded_message(shape):
    frame = _build(shape, random.Random(SEED), 0)
    segments = TRUNCATION_SEGMENTS[shape]
    assert segments[-1][1] + segments[-1][2] == len(frame)
    for header, need, offset in segments:
        for cut in range(offset, offset + need):
            with pytest.raises(DataPlaneError) as err:
                parse_packet(frame[:cut])
            assert str(err.value) == (
                f"truncated packet: {header} needs {need} bytes at offset "
                f"{offset}, only {cut - offset} available"
            )
    packet, headers = parse_packet(frame)
    assert (headers.stack, packet.size_bytes) == (STACKS[shape], len(frame))


def test_inner_udp_to_4789_is_not_decapsulated_again():
    inner = build_frame(src_ip=1, dst_ip=2, src_port=3, dst_port=VXLAN_PORT, protocol=PROTO_UDP)
    packet, headers = parse_packet(build_vxlan_frame(9, inner=inner + b"\x08" * 8))
    assert packet.five_tuple() == (1, 2, 3, VXLAN_PORT, PROTO_UDP)
    assert (headers.stack, headers.vlan_id, headers.vni) == (STACKS["vxlan_udp"], None, 9)


def _patched(shape: str, at: int, value: int) -> bytes:
    frame = bytearray(_build(shape, random.Random(SEED), 0))
    frame[at] = value
    return bytes(frame)


MALFORMED = [
    (_patched("plain_tcp", 12, 0x86), "unsupported ethertype 0x8600"),
    (_patched("vlan_tcp", 16, 0x88), "unsupported ethertype 0x8800"),
    (_patched("plain_tcp", 14, 0x65), "not IPv4 (version 6)"),
    (_patched("vlan_udp", 18, 0x44), "bad IPv4 IHL 16"),
    (_patched("plain_tcp", 14, 0x4F),
     "truncated packet: ipv4 options needs 60 bytes at offset 14, only 40 available"),
    (_patched("plain_udp", 14 + 9, 47), "unsupported IP protocol 47"),
    (_patched("plain_tcp", 34 + 12, 0x40), "bad TCP data offset 16"),
    (_patched("vxlan_tcp", 42, 0x00), "VxLAN header without valid-VNI flag"),
    (_patched("vxlan_udp", 50 + 12, 0x81), "unsupported inner ethertype 0x8100"),
    (_patched("vxlan_tcp", 64, 0x55), "not IPv4 (version 5)"),
    (_patched("vxlan_udp", 64 + 9, 1), "unsupported IP protocol 1"),
    (_patched("vxlan_tcp", 84 + 12, 0x10), "bad TCP data offset 4"),
]


@pytest.mark.parametrize("frame, message", MALFORMED, ids=[m for _, m in MALFORMED])
def test_malformed_header_rejects_with_the_recorded_message(frame, message):
    with pytest.raises(DataPlaneError) as err:
        parse_packet(frame)
    assert str(err.value) == message


def test_ipv4_and_tcp_options_are_skipped():
    fields = dict(src_ip=0x0A000001, dst_ip=0x0A000002, src_port=1234, dst_port=80, dscp=9)
    base = bytearray(build_frame(**fields))
    # IHL 6 and data offset 6: four option bytes after each fixed header.
    frame = base[:14] + bytes([0x46]) + base[15:34] + b"\x01\x01\x01\x00" + base[34:]
    frame[38 + 12] = 0x60
    frame += b"\x01\x01\x01\x00"
    packet, headers = parse_packet(bytes(frame), default_tenant=5)
    assert packet.five_tuple() == (0x0A000001, 0x0A000002, 1234, 80, PROTO_TCP)
    assert (packet.dscp, packet.tenant_id, packet.size_bytes) == (9, 5, 62)
    assert headers == parse_packet(bytes(base))[1]


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: build_ipv4_l4(1, 2, 3, 4, protocol=47), "unsupported protocol 47"),
        (lambda: build_frame(1, 2, 3, 4, vlan_id=5000), "VLAN id 5000 outside [0, 4095]"),
        (lambda: build_frame(1, 2, 3, 4, vlan_id=-1), "VLAN id -1 outside [0, 4095]"),
        (lambda: build_vxlan_frame(2**24, src_ip=1, dst_ip=2, src_port=3, dst_port=4),
         "VNI 16777216 outside 24 bits"),
    ],
    ids=["protocol", "vlan-high", "vlan-negative", "vni"],
)
def test_builder_rejects_with_the_recorded_message(build, message):
    with pytest.raises(DataPlaneError) as err:
        build()
    assert str(err.value) == message
