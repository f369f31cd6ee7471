"""Unit tests for fast-path fallback behaviour: uncompilable tenants take
the interpreter, the engine runs the numpy kernel, and special
packets (traced / sampled / mid-recirculation / pre-dropped) route to the
oracle."""

from __future__ import annotations

from repro.core.spec import SwitchSpec
from repro.dataplane.packet import Packet
from repro.dataplane.pipeline import SwitchPipeline
from repro.dataplane.table import (
    MatchActionTable,
    MatchField,
    MatchKind,
    TableEntry,
)
from repro.fastpath import FastPathEngine
from repro.fastpath.kernels import NumpyKernel


def build_pipeline():
    pl = SwitchPipeline(
        spec=SwitchSpec(stages=1, blocks_per_stage=8), max_passes=2
    )
    t = MatchActionTable(
        "acl",
        key=[
            MatchField("tenant_id", MatchKind.EXACT),
            MatchField("dst_port", MatchKind.RANGE),
        ],
    )
    t.insert(TableEntry(
        match={"tenant_id": 1, "dst_port": (0, 1023)},
        action="set_dscp", params={"dscp": 7},
    ))
    # Tenant 2's chain uses an action the kernel refuses to reproduce.
    t.insert(TableEntry(
        match={"tenant_id": 2, "dst_port": (0, 65535)},
        action="mystery", params={},
    ))
    pl.stage(0).install_table(t)
    pl.actions.register("mystery", lambda packet, params: None)
    return pl


def batch(tenant_id, n=16):
    return [Packet(tenant_id=tenant_id, dst_port=80 + i) for i in range(n)]


def test_uncompilable_tenant_takes_interpreter_and_matches_it():
    ref, got = build_pipeline(), build_pipeline()
    engine = FastPathEngine.attach(got)
    ref_results = ref.process_batch(batch(2) + batch(1))
    got_results = got.process_batch(batch(2) + batch(1))
    for a, b in zip(ref_results, got_results):
        assert (a.packet.dscp, a.packet.dropped, a.passes) == (
            b.packet.dscp, b.packet.dropped, b.passes
        )
    assert isinstance(engine.kernel, NumpyKernel)
    assert engine.stats["fallback_packets"] == 16
    assert engine.stats["interpreted_packets"] == 16
    assert engine.stats["compiled_packets"] == 16


def test_negative_plan_is_cached_not_reclassified():
    pipeline = build_pipeline()
    engine = FastPathEngine.attach(pipeline)
    pipeline.process_batch(batch(2))
    compiles = engine.stats["compiles"]
    pipeline.process_batch(batch(2))
    assert engine.stats["compiles"] == compiles  # negative entry reused
    assert engine.stats["cache_hits"] >= 1


def test_special_packets_route_to_interpreter():
    pipeline = build_pipeline()
    engine = FastPathEngine.attach(pipeline)
    mid_recirc = Packet(tenant_id=1, dst_port=80, pass_id=2)
    pre_dropped = Packet(tenant_id=1, dst_port=81)
    pre_dropped.dropped = True
    results = pipeline.process_batch([mid_recirc, pre_dropped] + batch(1, 4))
    assert engine.stats["interpreted_packets"] == 2
    assert engine.stats["compiled_packets"] == 4
    assert results[1].packet.dropped


def test_trace_batches_are_fully_interpreted():
    pipeline = build_pipeline()
    engine = FastPathEngine.attach(pipeline)
    results = pipeline.process_batch(batch(1, 4), trace=True)
    assert engine.stats["interpreted_packets"] == 4
    assert engine.stats["compiled_packets"] == 0
    assert all(r.postcard is not None for r in results)


def test_detach_restores_interpreter():
    pipeline = build_pipeline()
    engine = FastPathEngine.attach(pipeline)
    assert pipeline.fastpath is engine
    engine.detach()
    assert pipeline.fastpath is None
    pipeline.process_batch(batch(1, 4))
    assert engine.stats["batches"] == 0  # no longer routed here
