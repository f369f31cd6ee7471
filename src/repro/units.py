"""Unit conventions and conversion helpers.

The paper mixes several unit systems (Gbps backplane speed, bits of rule
width, SRAM blocks, nanoseconds of latency).  This module pins down the
conventions used across the library so numbers never silently change scale:

* bandwidth / throughput — **Gbps** (float) at every API; resource
  accounting sums **bits per second** (int, :func:`to_bps`), which is exact
* rule width ``b`` and block size ``E`` — **bits** (int)
* memory — **blocks** (int) and **entries** (int)
* latency — **nanoseconds** (float)
* packet size — **bytes** (int)
"""

from __future__ import annotations

GBPS = 1.0e9          # bits per second in one Gbps
NS_PER_S = 1.0e9      # nanoseconds per second
BITS_PER_BYTE = 8

#: Ethernet framing overhead per packet on the wire: preamble (7B) + SFD (1B)
#: + inter-packet gap (12B).  The FCS is already part of the quoted frame
#: size (a "64-byte packet" includes it), so 100 Gbps of 64B frames is the
#: classic 148.8 Mpps.  Used when converting packets/s to line-rate Gbps the
#: way traffic generators report it.
ETHERNET_OVERHEAD_BYTES = 20

#: Minimum / maximum Ethernet frame sizes used throughout the evaluation.
MIN_PACKET_BYTES = 64
MAX_PACKET_BYTES = 1500


def to_bps(gbps: float) -> int:
    """A Gbps figure as whole bits per second, for integer accounting."""
    return round(gbps * GBPS)


def gbps_to_pps(gbps: float, packet_bytes: int, *, include_overhead: bool = True) -> float:
    """Convert an offered load in Gbps to packets per second.

    ``include_overhead`` accounts for the 20B+ on-wire framing overhead the
    way hardware traffic generators (and the paper's 100Gbps sender) do.
    """
    if packet_bytes <= 0:
        raise ValueError(f"packet_bytes must be positive, got {packet_bytes}")
    wire_bytes = packet_bytes + (ETHERNET_OVERHEAD_BYTES if include_overhead else 0)
    return gbps * GBPS / (wire_bytes * BITS_PER_BYTE)


def pps_to_gbps(pps: float, packet_bytes: int, *, include_overhead: bool = True) -> float:
    """Convert a packet rate to the equivalent offered load in Gbps."""
    if packet_bytes <= 0:
        raise ValueError(f"packet_bytes must be positive, got {packet_bytes}")
    wire_bytes = packet_bytes + (ETHERNET_OVERHEAD_BYTES if include_overhead else 0)
    return pps * wire_bytes * BITS_PER_BYTE / GBPS


def mpps(pps: float) -> float:
    """Express a packet rate in millions of packets per second."""
    return pps / 1.0e6


def seconds_to_ns(seconds: float) -> float:
    """Convert seconds to nanoseconds."""
    return seconds * NS_PER_S


def ns_to_seconds(ns: float) -> float:
    """Convert nanoseconds to seconds."""
    return ns / NS_PER_S
