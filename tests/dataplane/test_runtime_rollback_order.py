"""Rollback must restore insertion-order tie-breaks, not just entry sets.

Re-inserting a deleted entry as a fresh insert would put it at the *end* of
the table, silently flipping the winner between equal-priority overlapping
entries.  ``RuntimeAPI.write`` therefore rolls back through an undo log that
re-files each deleted entry under its original order; these tests pin that
behavior — entries, rule ids, lookups, partition generations, reservations
— on both the indexed fast path and the linear oracle.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.spec import SwitchSpec
from repro.dataplane.packet import Packet
from repro.dataplane.pipeline import SwitchPipeline
from repro.dataplane.runtime_api import OpType, RuntimeAPI, WriteOp
from repro.dataplane.table import MatchActionTable, MatchField, MatchKind, TableEntry


def _setup(indexed: bool):
    pipeline = SwitchPipeline(spec=SwitchSpec(stages=1))
    table = MatchActionTable(
        "acl",
        key=[MatchField("protocol", MatchKind.EXACT)],
        indexed=indexed,
    )
    pipeline.stage(0).install_table(table)
    api = RuntimeAPI(pipeline)
    # Equal-priority overlapping entries: insertion order is the only
    # tie-break, and `first` wins it.
    first = TableEntry(match={"protocol": 6}, action="permit", priority=5)
    second = TableEntry(match={"protocol": 6}, action="drop", priority=5)
    assert api.write(
        [WriteOp(OpType.INSERT, "acl", first), WriteOp(OpType.INSERT, "acl", second)]
    ).ok
    return pipeline, api, table, first, second


@pytest.mark.parametrize("indexed", [True, False], ids=["indexed", "oracle"])
def test_failed_batch_restores_tie_break_winner(indexed):
    pipeline, api, table, first, second = _setup(indexed)
    assert table.lookup(Packet(protocol=6))[0] is first

    poison = TableEntry(match={"protocol": 99}, action="drop")
    result = api.write(
        [
            WriteOp(OpType.DELETE, "acl", first),   # applied, then undone
            WriteOp(OpType.DELETE, "acl", poison),  # fails the batch
        ]
    )
    assert not result.ok and result.applied == 0

    # Entry set AND order are back: `first` still wins the tie.
    assert [e for e in table.entries] == [first, second]
    entry, action, _ = table.lookup(Packet(protocol=6))
    assert entry is first
    assert action == "permit"


@pytest.mark.parametrize("indexed", [True, False], ids=["indexed", "oracle"])
def test_failed_batch_restores_resources_and_modify_order(indexed):
    pipeline, api, table, first, second = _setup(indexed)
    used_before = pipeline.stage(0).resources.entries_used
    blocks_before = pipeline.stage(0).resources.blocks_used

    replacement = TableEntry(match={"protocol": 6}, action="drop", priority=5)
    poison = TableEntry(match={"protocol": 99}, action="drop")
    result = api.write(
        [
            WriteOp(OpType.MODIFY, "acl", first, replacement=replacement),
            WriteOp(OpType.INSERT, "acl", TableEntry(match={"protocol": 17}, action="drop")),
            WriteOp(OpType.DELETE, "acl", poison),
        ]
    )
    assert not result.ok
    assert table.lookup(Packet(protocol=6))[0] is first
    assert pipeline.stage(0).resources.entries_used == used_before
    assert pipeline.stage(0).resources.blocks_used == blocks_before


def test_indexed_and_oracle_agree_after_rollback():
    """The index's undo path yields the same post-rollback lookups as a
    freshly rebuilt linear table — the differential guard for satellites."""
    results = {}
    for indexed in (True, False):
        _pipeline, _api, table, _first, _second = _setup(indexed)
        entry, action, params = table.lookup(Packet(protocol=6))
        results[indexed] = (entry.match, entry.priority, action, dict(params))
    assert results[True] == results[False]


@pytest.mark.parametrize("indexed", [True, False], ids=["indexed", "oracle"])
def test_rule_ids_survive_a_rollback(indexed):
    pipeline, api, table, first, second = _setup(indexed)
    third = TableEntry(match={"protocol": 17}, action="drop")
    assert api.insert("acl", third).ok
    assert api.delete("acl", first).ok
    ids = (table.entry_id(second), table.entry_id(third))
    assert ids == (1, 2)
    poison = TableEntry(match={"protocol": 99}, action="drop")
    result = api.write([
        WriteOp(OpType.DELETE, "acl", third),
        WriteOp(OpType.INSERT, "acl", first),
        WriteOp(OpType.DELETE, "acl", poison),
    ])
    assert not result.ok
    # The postcard's matched-rule id of every survivor is unchanged.
    assert (table.entry_id(second), table.entry_id(third)) == ids
    assert table.entry_id(first) is None


# -- the rollback oracle ------------------------------------------------------
ORACLE_KEY = (
    MatchField("tenant_id", MatchKind.EXACT),
    MatchField("dst_port", MatchKind.RANGE),
)
#: ``None`` is the shared partition (the rule wildcards the tenant).
ORACLE_TENANTS = (None, 1, 2, 3, 4)
POISONS = {
    "delete_absent": WriteOp(
        OpType.DELETE, "t", TableEntry(match={}, action="never_installed")
    ),
    "insert_malformed": WriteOp(
        OpType.INSERT, "t", TableEntry(match={"dst_port": (1, 2, 3)}, action="drop")
    ),
    "modify_without_replacement": WriteOp(
        OpType.MODIFY, "t", TableEntry(match={}, action="never_installed")
    ),
}

rules = st.builds(
    lambda tenant, lo, width, priority, action: TableEntry(
        match={"dst_port": (lo, lo + width)}
        if tenant is None
        else {"tenant_id": tenant, "dst_port": (lo, lo + width)},
        action=action,
        priority=priority,
    ),
    st.sampled_from(ORACLE_TENANTS),
    st.integers(0, 60),
    st.integers(0, 40),
    st.integers(0, 2),
    st.sampled_from(("permit", "drop", "no_op")),
)
#: (kind, which live entry a delete/modify targets, a fresh rule).
batch_ops = st.tuples(
    st.sampled_from((OpType.INSERT, OpType.DELETE, OpType.MODIFY)),
    st.integers(0, 1000),
    rules,
)
PROBES = [
    Packet(tenant_id=tenant, dst_port=port)
    for tenant in (1, 2, 3, 4, 5)
    for port in range(0, 110, 7)
]


def _oracle_side(indexed, installed):
    pipeline = SwitchPipeline(spec=SwitchSpec(stages=1))
    table = MatchActionTable("t", key=ORACLE_KEY, indexed=indexed)
    pipeline.stage(0).install_table(table)
    api = RuntimeAPI(pipeline)
    assert api.write([WriteOp(OpType.INSERT, "t", e) for e in installed]).ok
    return pipeline, api, table


def _tenant(entry):
    return entry.match.get("tenant_id")


@given(
    installed=st.lists(rules, min_size=1, max_size=20),
    deleted=st.sets(st.integers(0, 19), max_size=6),
    ops=st.lists(batch_ops, max_size=10),
    poison_at=st.integers(0, 10),
    poison=st.sampled_from(sorted(POISONS)),
    warm=st.sets(st.sampled_from(ORACLE_TENANTS[1:])),
)
@settings(max_examples=60, deadline=None)
def test_a_failed_batch_leaves_no_trace(installed, deleted, ops, poison_at, poison, warm):
    """Random INSERT/DELETE/MODIFY batches on a multi-tenant table, failed by
    a poison op at a random position: entries order, every rule id, every
    lookup, every untouched partition's generation and the reservation are
    their pre-batch values, on the indexed and the reference path alike."""
    for indexed in (True, False):
        pipeline, api, table = _oracle_side(indexed, installed)
        # Holes in the order numbering, so re-filed rows have gaps to fill.
        for i in sorted(deleted):
            if i < len(installed):
                assert api.delete("t", installed[i]).ok
        for tenant in warm:  # build some partitions' indexes, not all
            table.lookup(Packet(tenant_id=tenant, dst_port=0))
        live = table.entries
        before = [(e, table.entry_id(e)) for e in live]
        winners = [table.lookup_reference(p)[:2] for p in PROBES]
        gens = {t: table.partition_generation(t) for t in ORACLE_TENANTS}
        stamp = table.generation
        resources = pipeline.stage(0).resources
        reservation = (resources.reservation_state("t"), resources.blocks_used)

        batch = []
        for kind, pick, fresh in ops:
            if kind is OpType.INSERT or not live:
                batch.append(WriteOp(OpType.INSERT, "t", fresh))
                live.append(fresh)
                continue
            victim = live.pop(pick % len(live))
            if kind is OpType.DELETE:
                batch.append(WriteOp(OpType.DELETE, "t", victim))
            else:
                batch.append(WriteOp(OpType.MODIFY, "t", victim, replacement=fresh))
                live.append(fresh)
        cut = min(poison_at, len(batch))
        # The partitions the ops before the poison write; the rest never run.
        touched = {
            _tenant(e) for op in batch[:cut]
            for e in (op.entry, op.replacement) if e is not None
        }
        result = api.write(batch[:cut] + [POISONS[poison]] + batch[cut:])

        assert not result.ok and result.applied == 0
        after = [(e, table.entry_id(e)) for e in table.entries]
        assert len(after) == len(before)
        assert all(a is b and i == j for (a, i), (b, j) in zip(after, before))
        got = [table.lookup(p) for p in PROBES]
        assert all(g[0] is w[0] and g[1] == w[1] for g, w in zip(got, winners))
        assert [table.lookup_reference(p)[:2] for p in PROBES] == winners
        for tenant, gen in gens.items():
            if tenant not in touched:
                assert table.partition_generation(tenant) == gen
            elif gen:
                assert table.partition_generation(tenant) > stamp
        assert (resources.reservation_state("t"), resources.blocks_used) == reservation
        # ... and the same batch without its poison commits on top.
        assert api.write(batch).ok
        assert [table.lookup(p)[0] for p in PROBES] == [
            table.lookup_reference(p)[0] for p in PROBES
        ]
