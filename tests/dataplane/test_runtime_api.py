"""Tests for the P4Runtime-style batched CRUD API."""

import pytest

from repro.core.spec import SwitchSpec
from repro.dataplane.pipeline import SwitchPipeline
from repro.dataplane.runtime_api import OpType, RuntimeAPI, WriteOp
from repro.dataplane.table import MatchActionTable, MatchField, MatchKind, TableEntry


@pytest.fixture()
def pipeline():
    pl = SwitchPipeline(spec=SwitchSpec(stages=2, blocks_per_stage=2))
    t = MatchActionTable("acl", key=[MatchField("protocol", MatchKind.EXACT)])
    pl.stage(0).install_table(t)
    return pl


@pytest.fixture()
def api(pipeline):
    return RuntimeAPI(pipeline)


def _entry(proto=6, action="drop"):
    return TableEntry(match={"protocol": proto}, action=action)


def _entries(pipeline):
    return pipeline.stage(0).table("acl").entries


def test_insert_and_read(api, pipeline):
    result = api.insert("acl", _entry())
    assert result.ok and result.applied == 1
    assert len(_entries(pipeline)) == 1


def test_insert_charges_resources(api, pipeline):
    api.insert("acl", _entry())
    assert pipeline.stage(0).resources.entries_used == 1


def test_delete_refunds(api, pipeline):
    entry = _entry()
    api.insert("acl", entry)
    result = api.delete("acl", entry)
    assert result.ok
    assert pipeline.stage(0).resources.entries_used == 0
    assert _entries(pipeline) == []


def test_modify_swaps_entry(api, pipeline):
    old = _entry(action="drop")
    new = _entry(action="permit")
    api.insert("acl", old)
    result = api.modify("acl", old, new)
    assert result.ok
    entries = _entries(pipeline)
    assert len(entries) == 1 and entries[0].action == "permit"


def test_modify_without_replacement_rejected(api, pipeline):
    entry = _entry()
    api.insert("acl", entry)
    result = api.write([WriteOp(OpType.MODIFY, "acl", entry)])
    assert not result.ok and result.applied == 0
    assert "needs a replacement" in result.errors[0]
    assert _entries(pipeline) == [entry]


def test_batch_atomic_rollback(api, pipeline):
    good = _entry(proto=6)
    missing = _entry(proto=99)
    result = api.write(
        [
            WriteOp(OpType.INSERT, "acl", good),
            WriteOp(OpType.DELETE, "acl", missing),  # fails: never inserted
        ]
    )
    assert not result.ok
    assert result.applied == 0
    assert _entries(pipeline) == []
    assert pipeline.stage(0).resources.entries_used == 0


def test_batch_resource_overflow_rolls_back(api, pipeline):
    capacity = pipeline.stage(0).resources
    max_entries = capacity.blocks_total * capacity.entries_per_block
    ops = [WriteOp(OpType.INSERT, "acl", _entry(proto=i)) for i in range(max_entries + 1)]
    result = api.write(ops)
    assert not result.ok
    assert _entries(pipeline) == []


def test_unknown_table(api):
    result = api.write([WriteOp(OpType.INSERT, "ghost", _entry())])
    assert not result.ok
    assert "ghost" in result.errors[0]


def test_stats_and_counters(api, pipeline):
    api.insert("acl", _entry())
    assert len(_entries(pipeline)) == 1
    assert api.writes_total == 1
    assert api.batches_total == 1


def test_insert_run_fails_at_the_op_op_by_op_charging_would(api, pipeline):
    """A run of inserts into one table is charged at once; a run that does
    not fit still fails at, and reports, the op whose own charge or insert
    fails first."""
    capacity = pipeline.stage(0).resources
    fits = capacity.blocks_total * capacity.entries_per_block
    run = [WriteOp(OpType.INSERT, "acl", _entry(proto=i)) for i in range(fits + 1)]
    result = api.write(run)
    assert result.errors == ["insert acl: 'acl' needs 1 more blocks, stage has 0"]
    bad = WriteOp(OpType.INSERT, "acl", TableEntry(match={"protocol": "x"}, action="drop"))
    result = api.write(run[:5] + [bad] + run)
    assert len(result.errors) == 1 and "bad 'protocol' spec" in result.errors[0]
    assert _entries(pipeline) == [] and capacity.entries_used == 0


def test_delete_run_fails_at_the_op_op_by_op_refunds_would(api, pipeline):
    """A run of deletes from one table is refunded at once; where the
    reservation holds fewer entries than the run deletes (a rule written
    behind RuntimeAPI's back was never charged), it still fails at, and
    reports, the op whose own refund fails first."""
    charged = [_entry(proto=i) for i in range(2)]
    assert api.write([WriteOp(OpType.INSERT, "acl", e) for e in charged]).ok
    uncharged = _entry(proto=9)
    pipeline.stage(0).table("acl").insert(uncharged)
    result = api.write([WriteOp(OpType.DELETE, "acl", e) for e in charged + [uncharged]])
    assert result.errors == ["delete acl: cannot refund 1 of 0 entries"]
    assert api.writes_total == 2 + 2  # the ops before the failing one
    assert len(_entries(pipeline)) == 3 and pipeline.stage(0).resources.entries_used == 2
