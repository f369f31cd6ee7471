"""Unit tests for plan-cache invalidation: the precise RuntimeAPI notify
path, refresh-only rollbacks, and the lazy generation check that catches
writes bypassing the hook."""

from __future__ import annotations

import pytest

from repro.core.spec import SwitchSpec
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
    # Tenant 1's plan dropped; tenant 2's merely refreshed in place.
    assert engine.cached_plans == 1
    assert engine.stats["invalidations"] == 1
    assert engine.stats["refreshes"] == 1
    compiles = engine.stats["compiles"]
    plan2 = engine.plan_for(2)
    assert engine.stats["compiles"] == compiles  # cache hit, no recompile
    assert plan2.is_current(pipeline)
    engine.plan_for(1)
    assert engine.stats["compiles"] == compiles + 1


def test_unrelated_tenant_write_refreshes_everyone(pipeline, engine):
    api = RuntimeAPI(pipeline)
    assert api.insert("acl", acl_entry(999)).ok
    # 999 is in nobody's consts: both plans survive, refreshed.
    assert engine.cached_plans == 2
    assert engine.stats["invalidations"] == 0
    assert engine.stats["refreshes"] == 2
    for tenant in (1, 2):
        assert engine.plan_for(tenant).is_current(pipeline)


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
    # No tenant_id in the key: any entry can match any tenant's packets.
    assert engine.cached_plans == 0


def test_rolled_back_batch_only_refreshes(pipeline, engine):
    api = RuntimeAPI(pipeline)
    result = api.write([
        WriteOp(OpType.INSERT, "acl", acl_entry(1, 0, 80, action="drop")),
        # Deleting a never-inserted entry fails the batch -> rollback.
        WriteOp(OpType.DELETE, "acl", acl_entry(77)),
    ])
    assert not result.ok
    # Net no-op: both plans kept, both still current (generation advanced
    # by the insert+restore, so this requires the refresh notification).
    assert engine.cached_plans == 2
    assert engine.stats["invalidations"] == 0
    compiles = engine.stats["compiles"]
    for tenant in (1, 2):
        assert engine.plan_for(tenant).is_current(pipeline)
    assert engine.stats["compiles"] == compiles


def test_direct_table_write_caught_lazily(pipeline, engine):
    # Bypass RuntimeAPI entirely (the virtualizer's install path).
    pipeline.stage(0).table("acl").insert(acl_entry(1, 0, 9, action="drop"))
    compiles = engine.stats["compiles"]
    engine.plan_for(1)
    assert engine.stats["compiles"] == compiles + 1  # lazy staleness
    assert engine.stats["invalidations"] >= 1


def test_fallback_plans_invalidate_conservatively(pipeline, engine):
    t = pipeline.stage(0).table("acl")
    t.insert(acl_entry(3, action="mystery_action"))
    plan3 = engine.plan_for(3)
    assert plan3.fallback_reason is not None
    # Even an unrelated tenant's write drops the negative entry: churn may
    # have removed whatever made the chain uncompilable.
    api = RuntimeAPI(pipeline)
    assert api.insert("acl", acl_entry(999)).ok
    assert 3 not in [
        tid for tid in (1, 2, 3) if engine._plans.get(tid) is not None
    ]


def test_max_passes_change_invalidates(pipeline, engine):
    plan = engine.plan_for(1)
    pipeline.max_passes = 3
    assert not plan.is_current(pipeline)
    compiles = engine.stats["compiles"]
    engine.plan_for(1)
    assert engine.stats["compiles"] == compiles + 1


def test_invalidate_tenant_and_all(pipeline, engine):
    engine.invalidate_tenant(1)
    assert engine.cached_plans == 1
    engine.invalidate_all()
    assert engine.cached_plans == 0
