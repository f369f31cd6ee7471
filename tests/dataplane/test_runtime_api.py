"""Tests for the P4Runtime-style batched CRUD API."""

import pytest

from repro.core.spec import SwitchSpec
from repro.dataplane.pipeline import SwitchPipeline
from repro.dataplane.runtime_api import OpType, RuntimeAPI, WriteOp
from repro.dataplane.table import MatchActionTable, MatchField, MatchKind, TableEntry
from repro.errors import DataPlaneError


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


def test_insert_and_read(api):
    result = api.insert("acl", _entry())
    assert result.ok and result.applied == 1
    assert len(api.read_entries("acl")) == 1


def test_insert_charges_resources(api, pipeline):
    api.insert("acl", _entry())
    assert pipeline.stage(0).resources.entries_used == 1


def test_delete_refunds(api, pipeline):
    entry = _entry()
    api.insert("acl", entry)
    result = api.delete("acl", entry)
    assert result.ok
    assert pipeline.stage(0).resources.entries_used == 0
    assert api.read_entries("acl") == []


def test_modify_swaps_entry(api):
    old = _entry(action="drop")
    new = _entry(action="permit")
    api.insert("acl", old)
    result = api.modify("acl", old, new)
    assert result.ok
    entries = api.read_entries("acl")
    assert len(entries) == 1 and entries[0].action == "permit"


def test_modify_without_replacement_rejected(api):
    api.insert("acl", _entry())
    with pytest.raises(DataPlaneError):
        api._apply_one(WriteOp(OpType.MODIFY, "acl", _entry()))


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
    assert api.read_entries("acl") == []
    assert pipeline.stage(0).resources.entries_used == 0


def test_batch_resource_overflow_rolls_back(api, pipeline):
    capacity = pipeline.stage(0).resources
    max_entries = capacity.blocks_total * capacity.entries_per_block
    ops = [WriteOp(OpType.INSERT, "acl", _entry(proto=i)) for i in range(max_entries + 1)]
    result = api.write(ops)
    assert not result.ok
    assert api.read_entries("acl") == []


def test_unknown_table(api):
    result = api.write([WriteOp(OpType.INSERT, "ghost", _entry())])
    assert not result.ok
    assert "ghost" in result.errors[0]


def test_stats_and_counters(api):
    api.insert("acl", _entry())
    assert len(api.read_entries("acl")) == 1
    assert api.writes_total == 1
    assert api.batches_total == 1
