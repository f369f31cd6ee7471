"""Unit tests for fast-path invalidation: one layer — a verdict is current
iff the generations of the table partitions it read are unchanged — plus
the eager drop ``RuntimeAPI`` triggers for the tenants a write names."""

from __future__ import annotations

import pytest

from repro.core.spec import SwitchSpec
from repro.dataplane.packet import Packet
from repro.dataplane.pipeline import SwitchPipeline
from repro.dataplane.runtime_api import OpType, RuntimeAPI, WriteOp
from repro.dataplane.table import (
    MatchActionTable,
    MatchField,
    MatchKind,
    TableEntry,
)
from repro.fastpath import FastPathEngine


def acl_entry(tenant_id, lo=0, hi=65535, action="permit", params=None):
    return TableEntry(
        match={"tenant_id": tenant_id, "dst_port": (lo, hi)},
        action=action, params=params or {},
    )


@pytest.fixture()
def pipeline():
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
    t.insert(acl_entry(1))
    t.insert(acl_entry(2))
    pl.stage(0).install_table(t)
    return pl


@pytest.fixture()
def engine(pipeline):
    engine = FastPathEngine.attach(pipeline)
    engine.plan_for(1)
    engine.plan_for(2)
    assert engine.cached_plans == 2
    return engine


def test_write_invalidates_exactly_the_named_tenant(pipeline, engine):
    api = RuntimeAPI(pipeline)
    assert api.insert("acl", acl_entry(1, 0, 80, action="drop")).ok
    # Tenant 1's verdict and blocks dropped; tenant 2's untouched.
    assert engine.cached_plans == 1
    assert engine.stats["invalidations"] == 1
    assert list(engine._blocks[0]) == [2]
    compiles = engine.stats["compiles"]
    plan2 = engine.plan_for(2)
    assert engine.stats["compiles"] == compiles  # cache hit, no recompile
    assert plan2.is_current(pipeline)
    engine.plan_for(1)
    assert engine.stats["compiles"] == compiles + 1
    assert sorted(engine._blocks[0]) == [1, 2]


def test_unrelated_tenant_write_refreshes_everyone(pipeline, engine):
    api = RuntimeAPI(pipeline)
    assert api.insert("acl", acl_entry(999)).ok
    # 999's partition is one nobody read: both verdicts stay current with
    # nothing done to them.
    assert engine.cached_plans == 2
    assert engine.stats["invalidations"] == 0
    compiles = engine.stats["compiles"]
    for tenant in (1, 2):
        assert engine.plan_for(tenant).is_current(pipeline)
    assert engine.stats["compiles"] == compiles


def test_wildcard_tenant_write_invalidates_everyone(pipeline, engine):
    api = RuntimeAPI(pipeline)
    wildcard = TableEntry(
        match={"dst_port": (0, 65535)}, action="drop", params={}
    )
    assert api.insert("acl", wildcard).ok
    assert engine.cached_plans == 0
    assert engine.stats["invalidations"] == 2


def test_write_to_tenantless_table_invalidates_everyone(pipeline, engine):
    t = MatchActionTable(
        "global_acl", key=[MatchField("dst_port", MatchKind.RANGE)]
    )
    pipeline.stage(0).install_table(t)
    engine.invalidate_all()
    engine.plan_for(1)
    engine.plan_for(2)
    api = RuntimeAPI(pipeline)
    entry = TableEntry(match={"dst_port": (0, 10)}, action="drop", params={})
    assert api.insert("global_acl", entry).ok
    # No tenant_id in the key: the rule is in the shared partition, which
    # is part of every tenant's blocks.
    assert engine.cached_plans == 0


def test_rolled_back_batch_only_refreshes(pipeline, engine):
    api = RuntimeAPI(pipeline)
    result = api.write([
        WriteOp(OpType.INSERT, "acl", acl_entry(1, 0, 80, action="drop")),
        # Deleting a never-inserted entry fails the batch -> rollback.
        WriteOp(OpType.DELETE, "acl", acl_entry(77)),
    ])
    assert not result.ok
    # Net no-op, and nothing is dropped eagerly.  The restore kept the
    # generation of every partition the failed batch did not write, so
    # tenant 2's verdict is still current; tenant 1's partition was written
    # and restored, which costs tenant 1 — and only tenant 1 — a recompile.
    assert engine.cached_plans == 2
    assert engine.stats["invalidations"] == 0
    compiles = engine.stats["compiles"]
    assert engine.plan_for(2).is_current(pipeline)
    assert engine.stats["compiles"] == compiles
    plan1 = engine.plan_for(1)
    assert engine.stats["compiles"] == compiles + 1
    assert len(plan1.blocks[0, 1][1]) == 1  # the inserted rule is gone


def test_verdict_compiled_inside_a_rolled_back_batch_goes_stale(pipeline, engine):
    """The other half of the restore contract: a partition written since
    the snapshot is restamped, and stamps are never reissued, so what was
    compiled from the failed batch's transient content is not mistaken for
    current afterwards."""
    table = pipeline.stage(0).table("acl")
    snap, since = table.snapshot(), table.generation
    table.insert(acl_entry(1, 0, 80, action="drop"))
    transient = engine.plan_for(1)
    assert len(transient.blocks[0, 1][1]) == 2
    compiles = engine.stats["compiles"]
    table.restore(snap, since)
    engine.plan_for(2)  # tenant 2's partition was not written since
    assert engine.stats["compiles"] == compiles
    assert not transient.is_current(pipeline)
    assert len(engine.plan_for(1).blocks[0, 1][1]) == 1
    # ... and a later write cannot land on the transient stamp either.
    table.insert(acl_entry(1, 0, 81, action="drop"))
    assert not transient.is_current(pipeline)


def test_direct_table_write_caught_lazily(pipeline, engine):
    # Bypass RuntimeAPI entirely (the virtualizer's install path).
    pipeline.stage(0).table("acl").insert(acl_entry(1, 0, 9, action="drop"))
    compiles = engine.stats["compiles"]
    engine.plan_for(2)
    assert engine.stats["compiles"] == compiles  # not tenant 2's partition
    engine.plan_for(1)
    assert engine.stats["compiles"] == compiles + 1  # lazy staleness
    assert engine.stats["invalidations"] >= 1


def test_fallback_verdicts_are_as_precise_as_positive_ones(pipeline, engine):
    t = pipeline.stage(0).table("acl")
    t.insert(acl_entry(3, action="mystery_action"))
    assert engine.plan_for(3).fallback_reason is not None
    compiles = engine.stats["compiles"]
    # An unrelated tenant's write leaves the negative verdict alone: only
    # a change to tenant 3's own partitions can make its chain compilable.
    api = RuntimeAPI(pipeline)
    assert api.insert("acl", acl_entry(999)).ok
    assert api.insert("acl", acl_entry(1, 0, 80, action="drop")).ok
    assert engine.plan_for(3).fallback_reason is not None
    assert engine.stats["compiles"] == compiles
    # ... and such a change does re-open it.
    assert t.delete_where(tenant_id=3) == 1
    assert engine.plan_for(3).fallback_reason is None
    assert engine.stats["compiles"] == compiles + 1


def test_max_passes_change_invalidates(pipeline, engine):
    plan = engine.plan_for(1)
    pipeline.max_passes = 3
    assert not plan.is_current(pipeline)
    compiles = engine.stats["compiles"]
    engine.plan_for(1)
    assert engine.stats["compiles"] == compiles + 1


def test_structure_change_drops_blocks_filed_by_table_position(pipeline, engine):
    front = MatchActionTable(
        "front", key=[MatchField("tenant_id", MatchKind.EXACT)]
    )
    pipeline.stage(0).install_table(front)
    pipeline.stage(0).tables.insert(0, pipeline.stage(0).tables.pop())
    pipeline.stage(0)._bump_structure()
    engine.plan_for(1)
    # "acl" is table 1 now; nothing of the old numbering survives.
    assert [sorted(per) for per in engine._blocks] == [[], [1]]
    got = pipeline.process_batch([Packet(tenant_id=1, dst_port=5)])
    assert got[0].passes == 1
    assert (front.misses, pipeline.stage(0).table("acl").hits) == (1, 1)


def test_invalidate_all(pipeline, engine):
    compiles = engine.stats["compiles"]
    assert engine.cached_blocks == 4  # two tenants, one block per pass
    engine.invalidate_all()
    assert engine.cached_plans == 0
    assert engine.cached_blocks == 0
    engine.plan_for(1)
    assert engine.stats["compiles"] == compiles + 1
