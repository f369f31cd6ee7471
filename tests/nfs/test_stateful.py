"""Tests for the extern-backed metered rate limiter (meter policing)."""

import pytest

from repro.core.spec import SwitchSpec
from repro.dataplane.packet import Packet
from repro.dataplane.pipeline import SwitchPipeline
from repro.dataplane.virtualization import LogicalNF, LogicalSFC, SFCVirtualizer
from repro.errors import DataPlaneError
from repro.nfs.stateful import MeteredRateLimiter


def _deploy(nf, rules):
    pipeline = SwitchPipeline(
        spec=SwitchSpec(stages=1, blocks_per_stage=8), max_passes=1
    )
    pipeline.stage(0).install_table(nf.make_physical_table(0))
    SFCVirtualizer(pipeline).install_sfc(
        LogicalSFC(tenant_id=1, nfs=(LogicalNF(nf.name, tuple(rules)),))
    )
    return pipeline


class TestMeteredRateLimiter:
    def test_green_traffic_passes(self):
        nf = MeteredRateLimiter(slots=4, committed_bps=8e9, burst_bytes=100_000)
        rule = nf.generate_rules(rng=1, count=1)[0]
        pipeline = _deploy(nf, [rule])
        src, _mask = rule.match["src_ip"]
        packet = Packet(tenant_id=1, src_ip=src, protocol=6, size_bytes=1000,
                        timestamp_ns=0.0)
        assert pipeline.process(packet).delivered

    def test_red_traffic_dropped(self):
        # Tiny burst, no refill: the second back-to-back packet exceeds peak.
        nf = MeteredRateLimiter(slots=1, committed_bps=8e3, burst_bytes=1000)
        rule = nf.generate_rules(rng=1, count=1)[0]
        pipeline = _deploy(nf, [rule])
        src, _mask = rule.match["src_ip"]

        def send(ts):
            p = Packet(tenant_id=1, src_ip=src, protocol=6, size_bytes=1000,
                       timestamp_ns=ts)
            return pipeline.process(p)

        assert send(0.0).delivered
        assert not send(1.0).delivered  # bucket empty, ~no refill in 1 ns

    def test_tokens_refill_with_packet_timestamps(self):
        nf = MeteredRateLimiter(slots=1, committed_bps=8e9, burst_bytes=1000)
        rule = nf.generate_rules(rng=1, count=1)[0]
        pipeline = _deploy(nf, [rule])
        src, _ = rule.match["src_ip"]
        first = Packet(tenant_id=1, src_ip=src, protocol=6, size_bytes=1000)
        pipeline.process(first)
        # 8 Gbps = 1 B/ns: after 2000 ns the 1000-B bucket is full again.
        later = Packet(tenant_id=1, src_ip=src, protocol=6, size_bytes=1000,
                       timestamp_ns=2000.0)
        assert pipeline.process(later).delivered

    def test_other_tenants_not_policed(self):
        nf = MeteredRateLimiter(slots=1, committed_bps=8e3, burst_bytes=100)
        rule = nf.generate_rules(rng=1, count=1)[0]
        pipeline = _deploy(nf, [rule])
        src, _ = rule.match["src_ip"]
        other = Packet(tenant_id=2, src_ip=src, protocol=6, size_bytes=1000)
        assert pipeline.process(other).delivered  # falls through to no_op

    def test_slot_validation(self):
        with pytest.raises(DataPlaneError):
            MeteredRateLimiter(slots=0)

