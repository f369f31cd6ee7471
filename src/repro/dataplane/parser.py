"""Byte-level packet parser / deparser.

The paper assumes "tenant traffic can be classified by header fields ...
VLAN, VxLAN, GRE, etc." (§III).  This module grounds that assumption: it
parses real byte strings — Ethernet / (optional 802.1Q VLAN) / IPv4 /
(TCP | UDP), with UDP port 4789 recognized as VxLAN whose VNI becomes the
tenant ID, and an inner Ethernet/IPv4/L4 frame parsed as the tenant packet —
into the :class:`~repro.dataplane.packet.Packet` the pipeline matches on,
and deparses packets back to bytes (the egress side).

The parse graph mirrors a P4 parser: a state machine over header types with
explicit extract offsets; unknown ethertypes/protocols raise
:class:`~repro.errors.DataPlaneError` like a P4 parser reject.  Each header
is extracted by one precompiled :class:`struct.Struct` (IPv4's fixed 20
bytes in one unpack), and each frame shape is emitted by one precompiled
pack: this module runs once per packet on both sides of the fast path.
"""

from __future__ import annotations

import struct
from typing import NamedTuple

from repro.dataplane.packet import Packet
from repro.errors import DataPlaneError

ETHERTYPE_IPV4 = 0x0800
ETHERTYPE_VLAN = 0x8100
PROTO_TCP = 6
PROTO_UDP = 17
VXLAN_PORT = 4789

ETH_LEN = 14
VLAN_LEN = 4
IPV4_MIN_LEN = 20
UDP_LEN = 8
TCP_MIN_LEN = 20
VXLAN_LEN = 8

# Extract: the ethertype at offset 12; a VLAN tag's (TCI, ethertype);
# IPv4's (version/IHL, TOS, protocol, src, dst); TCP's (sport, dport, data
# offset); UDP's (sport, dport); VxLAN's (flags, VNI << 8 | reserved).
_ETHERTYPE = struct.Struct("!12xH")
_VLAN = struct.Struct("!HH")
_IPV4 = struct.Struct("!BB7xB2xII")
_TCP = struct.Struct("!HH8xB")
_UDP = struct.Struct("!HH")
_VXLAN = struct.Struct("!B3xI")

# Emit, one Struct per frame shape: MACs, ethertype [or 802.1Q tag: TPID,
# TCI, ethertype], IPv4 (version/IHL, TOS, total length, TTL, protocol, src,
# dst), then the ports and two more L4 fields: TCP's data offset and window,
# or UDP's length and checksum.  Every other field is zero.
_MACS = b"\x02" * 6 + b"\x04" * 6
_L4_OUT = {PROTO_TCP: "HH8xBxH4x", PROTO_UDP: "HHHH"}
_PLAIN = {p: struct.Struct("!12sHBBH4xBB2xII" + l4) for p, l4 in _L4_OUT.items()}
_TAGGED = {p: struct.Struct("!12sHHHBBH4xBB2xII" + l4) for p, l4 in _L4_OUT.items()}


class ParsedHeaders(NamedTuple):
    """Which headers the parser walked, for tests and tracing."""

    stack: tuple[str, ...]
    vlan_id: int | None = None
    vni: int | None = None


def _walk(tagged: bool, vxlan: bool, protocol: int) -> tuple[str, ...]:
    outer = ("ethernet", "vlan", "ipv4") if tagged else ("ethernet", "ipv4")
    l4 = "tcp" if protocol == PROTO_TCP else "udp"
    if vxlan:
        return outer + ("udp", "vxlan", "inner_ethernet", "inner_ipv4", "inner_" + l4)
    return outer + (l4,)


#: One interned stack per header-stack shape: ``(tagged, vxlan, protocol)``.
_STACKS = {
    (tagged, vxlan, protocol): _walk(tagged, vxlan, protocol)
    for tagged in (False, True)
    for vxlan in (False, True)
    for protocol in (PROTO_TCP, PROTO_UDP)
}


def _truncated(header: str, need: int, offset: int, size: int) -> DataPlaneError:
    return DataPlaneError(
        f"truncated packet: {header} needs {need} bytes at offset "
        f"{offset}, only {size - offset} available"
    )


def parse_packet(data: bytes, default_tenant: int = 0) -> tuple[Packet, ParsedHeaders]:
    """Parse wire bytes into a pipeline :class:`Packet`.

    Tenant classification (§III "we uniformly call these header fields
    tenant ID"), in priority order:

    1. VxLAN VNI, when the outer L4 is UDP :4789 — the inner frame's
       5-tuple populates the packet;
    2. 802.1Q VLAN ID;
    3. ``default_tenant`` otherwise.
    """
    size = len(data)
    if size < ETH_LEN:
        raise _truncated("ethernet", ETH_LEN, 0, size)
    (ethertype,) = _ETHERTYPE.unpack_from(data)
    offset = ETH_LEN
    vlan_id = vni = None
    if ethertype == ETHERTYPE_VLAN:
        if size < ETH_LEN + VLAN_LEN:
            raise _truncated("vlan", VLAN_LEN, offset, size)
        tci, ethertype = _VLAN.unpack_from(data, offset)
        vlan_id = tci & 0x0FFF
        offset += VLAN_LEN
    if ethertype != ETHERTYPE_IPV4:
        raise DataPlaneError(f"unsupported ethertype {ethertype:#06x}")
    # IPv4 / L4, then once more for the inner frame when the L4 is VxLAN.
    while True:
        if size < offset + IPV4_MIN_LEN:
            raise _truncated("ipv4", IPV4_MIN_LEN, offset, size)
        version_ihl, tos, protocol, src_ip, dst_ip = _IPV4.unpack_from(data, offset)
        if version_ihl >> 4 != 4:
            raise DataPlaneError(f"not IPv4 (version {version_ihl >> 4})")
        ihl = (version_ihl & 0x0F) * 4
        if ihl != IPV4_MIN_LEN:
            if ihl < IPV4_MIN_LEN:
                raise DataPlaneError(f"bad IPv4 IHL {ihl}")
            if size < offset + ihl:
                raise _truncated("ipv4 options", ihl, offset, size)
        offset += ihl
        if protocol == PROTO_TCP:
            if size < offset + TCP_MIN_LEN:
                raise _truncated("tcp", TCP_MIN_LEN, offset, size)
            src_port, dst_port, data_offset = _TCP.unpack_from(data, offset)
            data_offset = (data_offset >> 4) * 4
            if data_offset < TCP_MIN_LEN:
                raise DataPlaneError(f"bad TCP data offset {data_offset}")
            offset += data_offset
            break
        if protocol != PROTO_UDP:
            raise DataPlaneError(f"unsupported IP protocol {protocol}")
        if size < offset + UDP_LEN:
            raise _truncated("udp", UDP_LEN, offset, size)
        src_port, dst_port = _UDP.unpack_from(data, offset)
        offset += UDP_LEN
        if dst_port != VXLAN_PORT or vni is not None:
            break
        if size < offset + VXLAN_LEN:
            raise _truncated("vxlan", VXLAN_LEN, offset, size)
        flags, vni = _VXLAN.unpack_from(data, offset)
        if not flags & 0x08:
            raise DataPlaneError("VxLAN header without valid-VNI flag")
        vni >>= 8
        offset += VXLAN_LEN
        if size < offset + ETH_LEN:
            raise _truncated("inner ethernet", ETH_LEN, offset, size)
        (ethertype,) = _ETHERTYPE.unpack_from(data, offset)
        if ethertype != ETHERTYPE_IPV4:
            raise DataPlaneError(f"unsupported inner ethertype {ethertype:#06x}")
        offset += ETH_LEN

    if vni is not None:
        tenant = vni
    elif vlan_id is not None:
        tenant = vlan_id
    else:
        tenant = default_tenant
    packet = Packet(tenant, src_ip, dst_ip, src_port, dst_port, protocol, tos >> 2, size)
    stack = _STACKS[vlan_id is not None, vni is not None, protocol]
    return packet, ParsedHeaders(stack, vlan_id, vni)


# ----------------------------------------------------------------------
# Deparser / frame builders (also used by tests and trace replay)
# ----------------------------------------------------------------------
def _out_of_range(exc, src_ip, dst_ip, src_port, dst_port, dscp, total) -> DataPlaneError:
    """Name the header value that did not fit its wire field."""
    for name, value, bits in (
        ("src_ip", src_ip, 32), ("dst_ip", dst_ip, 32),
        ("src_port", src_port, 16), ("dst_port", dst_port, 16),
        ("dscp", dscp, 6), ("IPv4 total length", total, 16),
    ):
        if not (isinstance(value, int) and 0 <= value < 1 << bits):
            return DataPlaneError(f"{name} {value!r} outside {bits} bits")
    return DataPlaneError(f"header value does not fit its wire field: {exc}")


def build_ipv4_l4(
    src_ip: int,
    dst_ip: int,
    src_port: int,
    dst_port: int,
    protocol: int = PROTO_TCP,
    dscp: int = 0,
    payload: bytes = b"",
) -> bytes:
    """IPv4 + TCP/UDP bytes (no Ethernet)."""
    frame = build_frame(src_ip, dst_ip, src_port, dst_port, protocol, dscp, None, payload)
    return frame[ETH_LEN:]


def build_frame(
    src_ip: int,
    dst_ip: int,
    src_port: int,
    dst_port: int,
    protocol: int = PROTO_TCP,
    dscp: int = 0,
    vlan_id: int | None = None,
    payload: bytes = b"",
) -> bytes:
    """A full Ethernet frame, optionally 802.1Q tagged."""
    if vlan_id is not None and not 0 <= vlan_id <= 0x0FFF:
        raise DataPlaneError(f"VLAN id {vlan_id} outside [0, 4095]")
    if protocol == PROTO_TCP:
        total = IPV4_MIN_LEN + TCP_MIN_LEN + len(payload)
        l4_a, l4_b = 5 << 4, 8192  # data offset (5 words, no options), window
    elif protocol == PROTO_UDP:
        l4_a, l4_b = UDP_LEN + len(payload), 0  # length, checksum
        total = IPV4_MIN_LEN + l4_a
    else:
        raise DataPlaneError(f"unsupported protocol {protocol}")
    try:
        if vlan_id is None:
            head = _PLAIN[protocol].pack(
                _MACS, ETHERTYPE_IPV4, 0x45, dscp << 2, total, 64, protocol,
                src_ip, dst_ip, src_port, dst_port, l4_a, l4_b,
            )
        else:
            head = _TAGGED[protocol].pack(
                _MACS, ETHERTYPE_VLAN, vlan_id, ETHERTYPE_IPV4, 0x45, dscp << 2,
                total, 64, protocol, src_ip, dst_ip, src_port, dst_port, l4_a, l4_b,
            )
    except struct.error as exc:
        raise _out_of_range(exc, src_ip, dst_ip, src_port, dst_port, dscp, total) from None
    return head + payload if payload else head


def build_vxlan_frame(
    vni: int,
    inner: bytes | None = None,
    outer_src_ip: int = 0x0A000001,
    outer_dst_ip: int = 0x0A000002,
    **inner_fields,
) -> bytes:
    """An outer UDP/4789 VxLAN frame carrying ``inner`` (an Ethernet frame
    built with :func:`build_frame` when ``inner_fields`` are given)."""
    if not 0 <= vni < 2**24:
        raise DataPlaneError(f"VNI {vni} outside 24 bits")
    if inner is None:
        inner = build_frame(**inner_fields)
    return build_frame(
        src_ip=outer_src_ip,
        dst_ip=outer_dst_ip,
        src_port=49152,
        dst_port=VXLAN_PORT,
        protocol=PROTO_UDP,
        payload=_VXLAN.pack(0x08, vni << 8) + inner,
    )


def deparse_packet(packet: Packet, vlan_id: int | None = None) -> bytes:
    """Serialize a pipeline packet back to an Ethernet frame (egress).

    The tenant encapsulation is re-applied as a VLAN tag when requested;
    re-encapsulating VxLAN is the underlay's job and out of scope here.
    """
    return build_frame(
        packet.src_ip, packet.dst_ip, packet.src_port, packet.dst_port,
        packet.protocol, packet.dscp, vlan_id,
    )
