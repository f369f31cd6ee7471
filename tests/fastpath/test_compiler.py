"""Unit tests for the block compiler: which entries a (table, tenant, pass)
block holds, their rank order, predicate lowering, the ``set_tenant``
rewrite, and the compilable / uncompilable verdict."""

from __future__ import annotations

import numpy as np

from repro.core.spec import SwitchSpec
from repro.dataplane.pipeline import SwitchPipeline
from repro.dataplane.table import (
    MatchActionTable,
    MatchField,
    MatchKind,
    TableEntry,
)
from repro.fastpath.compiler import COLUMNS, compile_chain

INT64 = np.iinfo(np.int64)


def make_pipeline(*tables, max_passes=2):
    pipeline = SwitchPipeline(
        spec=SwitchSpec(stages=1, blocks_per_stage=8), max_passes=max_passes
    )
    for t in tables:
        pipeline.stage(0).install_table(t)
    return pipeline


def map_table(name="tenant_map", entries=()):
    t = MatchActionTable(
        name,
        key=[
            MatchField("tenant_id", MatchKind.EXACT),
            MatchField("pass_id", MatchKind.EXACT),
        ],
    )
    for e in entries:
        t.insert(e)
    return t


def acl_table(name="acl", entries=()):
    t = MatchActionTable(
        name,
        key=[
            MatchField("tenant_id", MatchKind.EXACT),
            MatchField("dst_ip", MatchKind.LPM),
            MatchField("dst_port", MatchKind.RANGE),
        ],
    )
    for e in entries:
        t.insert(e)
    return t


def preds_of(block, rank=0):
    """Rank ``rank``'s predicates as ``[(a, b), ...]`` per residual field
    (for :func:`acl_table`: ``dst_ip`` masked equality, ``dst_port`` range)."""
    return [tuple(pair) for pair in block.preds[rank].T.tolist()]


def test_const_key_table_folds_to_one_winner():
    """A table keyed on ``(tenant_id, pass_id)`` alone — the controller's
    ``tenant_map`` — is a one-entry block with no predicates left."""
    t = map_table(entries=[
        TableEntry(match={"tenant_id": 5, "pass_id": 1},
                   action="set_dscp", params={"dscp": 9}),
        TableEntry(match={"tenant_id": 6, "pass_id": 1},
                   action="drop", params={}),
    ])
    plan = compile_chain(make_pipeline(t), 5)
    assert plan.fallback_reason is None
    by_pass = plan.blocks[0, 5]
    # Pass 2 has no matching map entry: no block, a bulk miss.
    assert sorted(by_pass) == [1]
    block = by_pass[1]
    assert len(block) == 1 and block.preds.shape == (1, 2, 0)
    assert block.bindings[0].action == "set_dscp"
    assert block.bindings[0].writes == (("dscp", 9),)
    dscp = COLUMNS.index("dscp")
    assert block.wen[0].tolist() == [c == dscp for c in range(len(COLUMNS))]
    assert block.wval[0, dscp] == 9


def test_fold_probe_does_not_touch_counters():
    t = map_table(entries=[
        TableEntry(match={"tenant_id": 5, "pass_id": 1},
                   action="permit", params={}),
    ])
    compile_chain(make_pipeline(t), 5)
    assert t.hits == 0 and t.misses == 0


def test_other_tenants_filtered_and_const_preds_dropped():
    mine = TableEntry(
        match={"tenant_id": 1, "dst_ip": (0x0A000000, 8),
               "dst_port": (0, 1024)},
        action="permit", params={},
    )
    other = TableEntry(
        match={"tenant_id": 2, "dst_ip": (0x0A000000, 8),
               "dst_port": (0, 1024)},
        action="drop", params={},
    )
    plan = compile_chain(make_pipeline(acl_table(entries=[mine, other])), 1)
    block = plan.blocks[0, 1][1]
    assert len(block) == 1 and block.bindings[0].action == "permit"
    # tenant_id selects the block, it is not tested again: two residual
    # fields, LPM lowered to masked equality and the range kept.
    assert preds_of(block) == [(0xFF000000, 0x0A000000), (0, 1024)]
    # No pass_id in the key: the same rule is in every pass's block.
    assert sorted(plan.blocks[0, 1]) == [1, 2]


def test_compile_reads_only_the_tenants_partitions():
    """The scaling guard, by count: compiling one tenant walks that
    tenant's entries (and the shared ones), however many others are
    resident."""

    class CountingTable(MatchActionTable):
        entries_read = 0

        def partition(self, key):
            part = super().partition(key)
            self.entries_read += len(part)
            return part

    def entries_read_with(tenants: int) -> int:
        t = CountingTable("acl", key=[
            MatchField("tenant_id", MatchKind.EXACT),
            MatchField("dst_port", MatchKind.RANGE),
        ])
        t.insert(TableEntry(match={"dst_port": (0, 9)}, action="drop"))
        for tenant in range(1, tenants + 1):
            for port in range(16):
                t.insert(TableEntry(
                    match={"tenant_id": tenant, "dst_port": (port, port)},
                    action="permit",
                ))
        plan = compile_chain(make_pipeline(t), 3)
        assert len(plan.blocks[0, 3][1]) == 17
        return t.entries_read

    assert entries_read_with(8) == entries_read_with(64) == 17


def test_constant_filtering_to_empty_becomes_uniform_miss():
    only_other = TableEntry(
        match={"tenant_id": 2, "dst_ip": (0, 0), "dst_port": (0, 65535)},
        action="drop", params={},
    )
    plan = compile_chain(make_pipeline(acl_table(entries=[only_other])), 1)
    # Nothing of tenant 1's in the table: no block in any pass, so the
    # kernel applies the default to all of its lanes in bulk.
    assert plan.fallback_reason is None
    assert plan.blocks == {(0, 1): {}}


def test_entries_ranked_priority_then_specificity_then_order():
    def entry(prio, length, dscp):
        return TableEntry(
            match={"tenant_id": 1, "dst_ip": (0x0A000000, length),
                   "dst_port": (0, 65535)},
            action="set_dscp", params={"dscp": dscp}, priority=prio,
        )

    # Insert deliberately out of rank order.
    t = acl_table(entries=[entry(1, 8, 0), entry(5, 8, 1),
                           entry(5, 24, 2), entry(5, 24, 3)])
    plan = compile_chain(make_pipeline(t), 1)
    block = plan.blocks[0, 1][1]
    dscps = [b.writes[0][1] for b in block.bindings]
    # priority 5 before 1; /24 before /8; equal rank by insertion order.
    assert dscps == [2, 3, 1, 0]
    assert block.wval[:, COLUMNS.index("dscp")].tolist() == [2, 3, 1, 0]


def test_shared_partition_entries_merge_in_by_rank():
    """A wildcard-tenant rule is in every tenant's block, at its rank."""
    t = acl_table(entries=[
        TableEntry(match={"tenant_id": 1, "dst_port": (0, 9)},
                   action="set_dscp", params={"dscp": 1}, priority=1),
        TableEntry(match={"dst_port": (0, 99)},
                   action="set_dscp", params={"dscp": 2}, priority=5),
        TableEntry(match={"tenant_id": 1, "dst_port": (0, 999)},
                   action="set_dscp", params={"dscp": 3}, priority=9),
    ])
    pipeline = make_pipeline(t)
    mine = compile_chain(pipeline, 1).blocks[0, 1][1]
    assert [b.writes[0][1] for b in mine.bindings] == [3, 2, 1]
    stranger = compile_chain(pipeline, 77).blocks[0, 77][1]
    assert [b.writes[0][1] for b in stranger.bindings] == [2]


def test_wildcards_normalize_away():
    e = TableEntry(
        match={"tenant_id": 1, "dst_ip": (0, 0), "dst_port": (0, 9)},
        action="permit", params={},
    )
    wild = TableEntry(match={"tenant_id": 1}, action="permit", params={})
    plan = compile_chain(make_pipeline(acl_table(entries=[e, wild])), 1)
    block = plan.blocks[0, 1][1]
    # A /0 prefix is the always-true masked equality; an absent range is
    # the whole int64 line.
    assert preds_of(block, 0) == [(0, 0), (0, 9)]
    assert preds_of(block, 1) == [(0, 0), (INT64.min, INT64.max)]


def test_folded_set_tenant_rewrites_group_constant():
    """``set_tenant`` is a write to the tenant column: the compile follows
    it and compiles the blocks filed under the wire ID too."""
    mapping = map_table(entries=[
        TableEntry(match={"tenant_id": 7, "pass_id": 1},
                   action="set_tenant", params={"wire_id": 1007}),
    ])
    downstream = acl_table(entries=[
        TableEntry(match={"tenant_id": 1007, "dst_ip": (0, 0),
                          "dst_port": (0, 65535)},
                   action="permit", params={}),
    ])
    plan = compile_chain(make_pipeline(mapping, downstream), 7)
    assert plan.fallback_reason is None
    rewrite = plan.blocks[0, 7][1]
    tenant = COLUMNS.index("tenant_id")
    assert rewrite.wen[0, tenant] and rewrite.wval[0, tenant] == 1007
    # The downstream table's block is the *wire* ID's partition.
    assert len(plan.blocks[1, 1007][1]) == 1
    assert plan.blocks[1, 7] == {}
    assert {key for _table, key, _gen in plan.reads} == {None, 7, 1007}


def test_set_tenant_in_match_step_follows_the_rewrite():
    """A ``set_tenant`` behind real predicates (lanes of one tenant may
    diverge) needs no special case either: every ID a rule can write is
    compiled, and each lane picks its block by the ID it carries."""
    t = acl_table(entries=[
        TableEntry(match={"tenant_id": 1, "dst_ip": (0x0A000000, 24),
                          "dst_port": (0, 65535)},
                   action="set_tenant", params={"wire_id": 9}),
    ])
    later = acl_table("later", entries=[
        TableEntry(match={"tenant_id": 9, "dst_port": (0, 65535)},
                   action="set_dscp", params={"dscp": 4}),
    ])
    plan = compile_chain(make_pipeline(t, later), 1)
    assert plan.fallback_reason is None
    assert len(plan.blocks[1, 9][1]) == 1


def test_meter_police_is_uncompilable():
    from repro.dataplane.registers import MeterArray

    t = acl_table(entries=[
        TableEntry(match={"tenant_id": 1, "dst_ip": (0, 0),
                          "dst_port": (0, 65535)},
                   action="meter_police",
                   params={"meter": MeterArray("m", 4, 1000)}),
    ])
    plan = compile_chain(make_pipeline(t), 1)
    assert plan.fallback_reason is not None
    assert plan.blocks == {}


def test_overridden_action_is_uncompilable():
    pipeline = make_pipeline(acl_table(entries=[
        TableEntry(match={"tenant_id": 1, "dst_ip": (0, 0),
                          "dst_port": (0, 65535)},
                   action="permit2", params={}),
    ]))
    # A user-registered action can do anything: never compile it.
    pipeline.actions.register("permit2", lambda packet, params: None)
    plan = compile_chain(pipeline, 1)
    assert plan.fallback_reason is not None
    assert "permit2" in plan.fallback_reason
    # ... but only for the tenant whose rules use it.
    assert compile_chain(pipeline, 2).fallback_reason is None


def test_unknown_action_is_uncompilable_not_crash():
    t = acl_table(entries=[
        TableEntry(match={"tenant_id": 1, "dst_ip": (0, 0),
                          "dst_port": (0, 65535)},
                   action="warp_drive", params={}),
    ])
    plan = compile_chain(make_pipeline(t), 1)
    assert plan.fallback_reason is not None
    assert "warp_drive" in plan.fallback_reason


def test_match_value_beyond_int64_is_uncompilable_not_crash():
    t = acl_table(entries=[
        TableEntry(match={"tenant_id": 1, "dst_port": (0, 1 << 70)},
                   action="permit", params={}),
    ])
    plan = compile_chain(make_pipeline(t), 1)
    assert plan.fallback_reason is not None
    assert "64 bits" in plan.fallback_reason


def test_scalar_actions_keep_the_real_function():
    from repro.dataplane import action as act

    t = acl_table(entries=[
        TableEntry(match={"tenant_id": 1, "dst_ip": (0, 0),
                          "dst_port": (0, 65535)},
                   action="count", params={"counter": "c"}),
    ])
    plan = compile_chain(make_pipeline(t), 1)
    block = plan.blocks[0, 1][1]
    binding = block.bindings[0]
    assert binding.kind == "scalar"
    assert binding.fn is act.act_count
    assert binding.params == {"counter": "c"}
    # Called, not written: the rank is listed and its write row is empty.
    assert block.scalar == [0] and not block.wen[0].any()


def test_plan_records_invalidation_keys():
    t = acl_table()
    pipeline = make_pipeline(t)
    plan = compile_chain(pipeline, 1)
    assert plan.structure_gen == pipeline.structure_generation
    assert plan.is_current(pipeline)
    # Another tenant's rule moves another partition: still current.
    t.insert(TableEntry(
        match={"tenant_id": 2, "dst_ip": (0, 0), "dst_port": (0, 65535)},
        action="permit", params={},
    ))
    assert plan.is_current(pipeline)
    t.insert(TableEntry(
        match={"tenant_id": 1, "dst_ip": (0, 0), "dst_port": (0, 65535)},
        action="permit", params={},
    ))
    assert not plan.is_current(pipeline)  # its own partition moved


def test_plan_tracks_structure_generation():
    pipeline = make_pipeline(acl_table())
    plan = compile_chain(pipeline, 1)
    pipeline.stage(0).install_table(map_table("late_map"))
    assert not plan.is_current(pipeline)
