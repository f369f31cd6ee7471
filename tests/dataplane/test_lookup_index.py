"""Unit tests for the indexed lookup engine (:mod:`repro.dataplane.lookup_index`).

The differential harness proves equivalence statistically; these tests pin
the structural behaviors directly — shape grouping, bucket ordering,
range-bucket early exit, insert-time spec validation, and index consistency
through every mutation path.
"""

import pytest

from repro.dataplane.lookup_index import LookupIndex, validate_spec
from repro.dataplane.packet import Packet
from repro.dataplane.table import (
    MatchActionTable,
    MatchField,
    MatchKind,
    TableEntry,
)
from repro.errors import DataPlaneError

KEY = (
    MatchField("tenant_id", MatchKind.EXACT),
    MatchField("pass_id", MatchKind.EXACT),
    MatchField("dst_ip", MatchKind.LPM),
    MatchField("dst_port", MatchKind.RANGE),
)


def _table(**kwargs):
    return MatchActionTable("t", key=KEY, **kwargs)


class TestShapeGrouping:
    def test_tenant_rules_share_one_shape(self):
        index = LookupIndex(KEY)
        for tenant in range(50):
            index.add(
                TableEntry(match={"tenant_id": tenant, "pass_id": 1}, action="permit"),
                tenant,
            )
        assert index.num_shapes == 1
        assert len(index) == 50

    def test_distinct_masks_make_distinct_shapes(self):
        index = LookupIndex(KEY)
        index.add(TableEntry(match={"tenant_id": 1}, action="permit"), 0)
        index.add(TableEntry(match={"dst_ip": (0x0A000000, 8)}, action="permit"), 1)
        index.add(TableEntry(match={"dst_ip": (0x0A000000, 16)}, action="permit"), 2)
        assert index.num_shapes == 3

    def test_wildcardish_specs_collapse_to_wildcard_shape(self):
        # /0 LPM and mask-0 ternary constrain nothing: same (empty) shape as
        # a match-all entry.
        key = (
            MatchField("src_ip", MatchKind.TERNARY),
            MatchField("dst_ip", MatchKind.LPM),
        )
        index = LookupIndex(key)
        index.add(TableEntry(match={}, action="permit"), 0)
        index.add(TableEntry(match={"src_ip": (123, 0)}, action="permit"), 1)
        index.add(TableEntry(match={"dst_ip": (456, 0)}, action="permit"), 2)
        assert index.num_shapes == 1

    def test_range_specs_are_bucketed_by_their_other_fields(self):
        # A range is not masked equality: it is checked inside the bucket
        # the entry's *other* fields select, so tenant 2's packets never
        # scan tenant 1's range rules.
        index = LookupIndex(KEY)
        for tenant in (1, 2):
            for order, hi in enumerate((80, 443)):
                index.add(
                    TableEntry(match={"tenant_id": tenant, "dst_port": (0, hi)},
                               action="drop"),
                    tenant * 10 + order,
                )
        assert index.num_shapes == 1
        (group,) = index._groups.values()
        assert sorted(group.buckets) == [(1,), (2,)]
        assert all(len(b) == 2 for b in group.buckets.values())
        hit = index.lookup(Packet(tenant_id=2, dst_port=100))
        assert hit.match == {"tenant_id": 2, "dst_port": (0, 443)}
        assert index.lookup(Packet(tenant_id=2, dst_port=500)) is None


class TestRanking:
    def test_bucket_head_is_equal_priority_insertion_winner(self):
        t = _table()
        first = TableEntry(match={"tenant_id": 1}, action="permit", priority=5)
        second = TableEntry(match={"tenant_id": 1}, action="drop", priority=5)
        t.insert(first)
        t.insert(second)
        assert t.lookup(Packet(tenant_id=1))[0] is first

    def test_priority_beats_order_across_shapes(self):
        t = _table()
        t.insert(TableEntry(match={"tenant_id": 1}, action="permit", priority=1))
        loser = TableEntry(match={"dst_ip": (0x0A000000, 8)}, action="drop", priority=9)
        t.insert(loser)
        assert t.lookup(Packet(tenant_id=1, dst_ip=0x0A010101))[0] is loser

    def test_lpm_specificity_breaks_priority_ties(self):
        t = _table()
        t.insert(TableEntry(match={"dst_ip": (0x0A000000, 8)}, action="permit"))
        longer = TableEntry(match={"dst_ip": (0x0A0A0000, 16)}, action="drop")
        t.insert(longer)
        assert t.lookup(Packet(dst_ip=0x0A0A0101))[0] is longer

    def test_residue_outranks_indexed_candidate(self):
        t = _table()
        t.insert(TableEntry(match={"tenant_id": 1}, action="permit", priority=1))
        ranged = TableEntry(match={"dst_port": (0, 100)}, action="drop", priority=9)
        t.insert(ranged)
        assert t.lookup(Packet(tenant_id=1, dst_port=50))[0] is ranged

    def test_residue_scan_early_exits_behind_indexed_winner(self):
        t = _table()
        winner = TableEntry(match={"tenant_id": 1}, action="permit", priority=9)
        t.insert(winner)
        t.insert(TableEntry(match={"dst_port": (0, 65535)}, action="drop", priority=1))
        assert t.lookup(Packet(tenant_id=1, dst_port=50))[0] is winner


class TestSpecValidation:
    def test_malformed_lpm_rejected_at_insert(self):
        t = _table()
        with pytest.raises(DataPlaneError):
            t.insert(TableEntry(match={"dst_ip": (0, 40)}, action="drop"))
        with pytest.raises(DataPlaneError):
            t.insert(TableEntry(match={"dst_ip": (0, -1)}, action="drop"))
        with pytest.raises(DataPlaneError):
            t.insert(TableEntry(match={"dst_ip": 7}, action="drop"))  # not a pair
        assert t.num_entries == 0
        # Traffic keeps flowing after the rejected writes.
        assert t.lookup(Packet())[1] == t.default_action

    def test_malformed_exact_and_range_rejected(self):
        t = _table()
        with pytest.raises(DataPlaneError):
            t.insert(TableEntry(match={"tenant_id": "not-an-int"}, action="drop"))
        with pytest.raises(DataPlaneError):
            t.insert(TableEntry(match={"dst_port": (1, 2, 3)}, action="drop"))

    def test_validate_spec_accepts_wildcards_and_good_specs(self):
        validate_spec(MatchKind.EXACT, None)
        validate_spec(MatchKind.EXACT, 6)
        validate_spec(MatchKind.LPM, (0x0A000000, 24))
        validate_spec(MatchKind.TERNARY, (0x0A000000, 0xFF000000))
        validate_spec(MatchKind.RANGE, (0, 65535))

    def test_insert_many_is_atomic_on_bad_spec(self):
        t = _table()
        good = TableEntry(match={"tenant_id": 1}, action="permit")
        bad = TableEntry(match={"dst_ip": (0, 99)}, action="drop")
        with pytest.raises(DataPlaneError):
            t.insert_many([good, bad])
        assert t.num_entries == 0

    def test_insert_many_is_atomic_on_capacity(self):
        t = _table(max_entries=2)
        batch = [
            TableEntry(match={"tenant_id": i}, action="permit") for i in range(3)
        ]
        with pytest.raises(DataPlaneError):
            t.insert_many(batch)
        assert t.num_entries == 0
        t.insert_many(batch[:2])
        assert t.num_entries == 2


class TestIndexConsistency:
    def test_index_tracks_entry_count_through_mutations(self):
        t = _table()
        entries = [
            TableEntry(match={"tenant_id": i % 3, "pass_id": 1}, action="permit")
            for i in range(12)
        ]
        for e in entries:
            t.insert(e)
        assert len(t._index) == 12
        t.delete(entries[5])
        assert len(t._index) == 11
        assert t.delete_where(tenant_id=0) == 4
        assert len(t._index) == len(t.entries) == 7

    def test_duplicate_object_install_and_delete(self):
        t = _table()
        e = TableEntry(match={"tenant_id": 1}, action="permit")
        t.insert(e)
        t.insert(e)
        assert len(t._index) == 2
        t.delete(e)
        assert len(t._index) == 1
        assert t.lookup(Packet(tenant_id=1))[0] is e
        t.delete(e)
        assert len(t._index) == 0

    def test_restore_rebuilds_index(self):
        t = _table()
        e1 = TableEntry(match={"tenant_id": 1}, action="permit")
        e2 = TableEntry(match={"tenant_id": 1}, action="drop")
        t.insert(e1)
        t.insert(e2)
        snap = t.snapshot()
        t.delete(e1)
        t.restore(snap)
        assert len(t._index) == 2
        assert t.lookup(Packet(tenant_id=1))[0] is e1  # order restored

    def test_unindexed_table_has_no_index(self):
        t = _table(indexed=False)
        assert t._index is None
        e = TableEntry(match={"tenant_id": 1}, action="drop")
        t.insert(e)
        assert t.lookup(Packet(tenant_id=1))[0] is e
        assert t.hits == 1

    def test_counters_identical_between_paths(self):
        fast, slow = _table(), _table(indexed=False)
        for t in (fast, slow):
            t.insert(TableEntry(match={"tenant_id": 1}, action="permit"))
            t.lookup(Packet(tenant_id=1))
            t.lookup(Packet(tenant_id=2))
        assert (fast.hits, fast.misses) == (slow.hits, slow.misses) == (1, 1)
