"""Packet-trace recording and replay.

The paper drives its data-plane experiments with "synthetic traffic workload
and trace [IMC'10]".  This module provides the trace substrate: a simple
timestamped packet-record format with JSONL on-disk persistence, a
synthesizer that lays packets out in time at a target offered load, a replay
driver for the pipeline, and summary statistics (throughput, latency
percentiles) — everything the Fig. 4/5 style measurements need without a
hardware traffic generator.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np

from repro import units
from repro.dataplane.packet import Packet
from repro.dataplane.pipeline import SwitchPipeline
from repro.errors import WorkloadError
from repro.rng import make_rng
from repro.traffic.distributions import PacketSizeMix
from repro.traffic.flows import Flow, FlowGenerator


@dataclass(frozen=True)
class TraceRecord:
    """One packet in a trace."""

    timestamp_ns: float
    tenant_id: int
    src_ip: int
    dst_ip: int
    src_port: int
    dst_port: int
    protocol: int
    size_bytes: int

    def to_packet(self) -> Packet:
        """Materialize the pipeline packet this record describes."""
        return Packet(
            tenant_id=self.tenant_id,
            src_ip=self.src_ip,
            dst_ip=self.dst_ip,
            src_port=self.src_port,
            dst_port=self.dst_port,
            protocol=self.protocol,
            size_bytes=self.size_bytes,
            timestamp_ns=self.timestamp_ns,
        )


@dataclass
class Trace:
    """An ordered sequence of trace records."""

    records: list[TraceRecord] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    @property
    def duration_ns(self) -> float:
        if not self.records:
            return 0.0
        return self.records[-1].timestamp_ns - self.records[0].timestamp_ns

    def offered_gbps(self) -> float:
        """Average offered load over the trace's span (wire rate)."""
        if len(self.records) < 2 or self.duration_ns <= 0:
            return 0.0
        wire_bits = sum(
            (r.size_bytes + units.ETHERNET_OVERHEAD_BYTES) * 8 for r in self.records
        )
        return wire_bits / self.duration_ns  # bits/ns == Gbps

    # ------------------------------------------------------------------
    def save(self, path: str | Path) -> None:
        """Write as JSONL (one record per line)."""
        path = Path(path)
        with path.open("w") as fh:
            for record in self.records:
                fh.write(json.dumps(asdict(record)) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "Trace":
        path = Path(path)
        records = []
        with path.open() as fh:
            for line_no, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    records.append(TraceRecord(**json.loads(line)))
                except (json.JSONDecodeError, TypeError) as exc:
                    raise WorkloadError(f"{path}:{line_no}: bad trace record: {exc}")
        return cls(records=records)


def synthesize_trace(
    flows: Iterable[Flow],
    offered_gbps: float,
    duration_ms: float = 1.0,
    size_mix: PacketSizeMix | None = None,
    size_bytes: int | None = None,
    rng: int | np.random.Generator | None = None,
) -> Trace:
    """Lay packets out in time at ``offered_gbps`` for ``duration_ms``.

    Inter-arrival times are exponential (Poisson arrivals) with the rate
    implied by the offered load and the mean packet size; flows are picked
    uniformly.  Exactly one of ``size_mix`` / ``size_bytes`` must be given.
    """
    flows = list(flows)
    if not flows:
        raise WorkloadError("need at least one flow")
    if (size_mix is None) == (size_bytes is None):
        raise WorkloadError("pass exactly one of size_mix / size_bytes")
    if offered_gbps <= 0 or duration_ms <= 0:
        raise WorkloadError("offered load and duration must be positive")
    rng = make_rng(rng)
    mean_bytes = size_mix.mean_bytes if size_mix is not None else float(size_bytes)
    rate_pps = units.gbps_to_pps(offered_gbps, int(round(mean_bytes)))
    mean_gap_ns = 1e9 / rate_pps

    records: list[TraceRecord] = []
    now = 0.0
    horizon = duration_ms * 1e6
    while now < horizon:
        flow = flows[int(rng.integers(0, len(flows)))]
        size = (
            int(size_mix.sample(rng, 1)[0]) if size_mix is not None else int(size_bytes)
        )
        records.append(
            TraceRecord(
                timestamp_ns=now,
                tenant_id=flow.tenant_id,
                src_ip=flow.src_ip,
                dst_ip=flow.dst_ip,
                src_port=flow.src_port,
                dst_port=flow.dst_port,
                protocol=flow.protocol,
                size_bytes=size,
            )
        )
        now += float(rng.exponential(mean_gap_ns))
    return Trace(records=records)


@dataclass
class ReplayStats:
    """Outcome of replaying a trace through a pipeline."""

    packets: int
    delivered: int
    dropped: int
    recirculated: int
    achieved_gbps: float
    latency_ns_mean: float
    latency_ns_p50: float
    latency_ns_p99: float

    @property
    def delivery_ratio(self) -> float:
        return self.delivered / self.packets if self.packets else 0.0


def replay(trace: Trace, pipeline: SwitchPipeline) -> ReplayStats:
    """Push every trace packet through ``pipeline`` and summarize."""
    if not len(trace):
        raise WorkloadError("empty trace")
    latencies = []
    delivered = 0
    recirculated = 0
    delivered_bytes = 0
    for record in trace:
        result = pipeline.process(record.to_packet())
        if result.delivered:
            delivered += 1
            delivered_bytes += record.size_bytes
            latencies.append(result.latency_ns)
        if result.recirculations:
            recirculated += 1
    lat = np.asarray(latencies) if latencies else np.zeros(1)
    duration = max(trace.duration_ns, 1.0)
    achieved = delivered_bytes * 8 / duration  # bits/ns == Gbps
    return ReplayStats(
        packets=len(trace),
        delivered=delivered,
        dropped=len(trace) - delivered,
        recirculated=recirculated,
        achieved_gbps=achieved,
        latency_ns_mean=float(lat.mean()),
        latency_ns_p50=float(np.percentile(lat, 50)),
        latency_ns_p99=float(np.percentile(lat, 99)),
    )


def trace_from_generator(
    tenants: dict[int, int],
    offered_gbps: float,
    duration_ms: float = 0.5,
    size_bytes: int = 64,
    rng: int | np.random.Generator | None = None,
) -> Trace:
    """Convenience: ``{tenant_id: num_flows}`` -> a mixed multi-tenant trace."""
    rng = make_rng(rng)
    generator = FlowGenerator(rng)
    flows: list[Flow] = []
    for tenant_id, count in tenants.items():
        flows.extend(generator.flows(count, tenant_id=tenant_id))
    return synthesize_trace(
        flows, offered_gbps, duration_ms=duration_ms, size_bytes=size_bytes, rng=rng
    )
