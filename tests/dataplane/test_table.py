"""Unit tests for match-action tables (exact/ternary/LPM/range matching,
priorities, entry CRUD)."""

import pytest

from repro.dataplane.packet import Packet
from repro.dataplane.table import (
    MatchActionTable,
    MatchField,
    MatchKind,
    TableEntry,
)
from repro.errors import DataPlaneError


@pytest.fixture()
def acl():
    return MatchActionTable(
        name="acl",
        key=[
            MatchField("src_ip", MatchKind.TERNARY),
            MatchField("dst_port", MatchKind.RANGE),
            MatchField("protocol", MatchKind.EXACT),
        ],
    )


def test_exact_match():
    t = MatchActionTable("t", key=[MatchField("protocol", MatchKind.EXACT)])
    t.insert(TableEntry(match={"protocol": 6}, action="drop"))
    _, action, _ = t.lookup(Packet(protocol=6))
    assert action == "drop"
    _, action, _ = t.lookup(Packet(protocol=17))
    assert action == "no_op"


def test_ternary_match_with_mask(acl):
    acl.insert(
        TableEntry(
            match={"src_ip": (0x0A000000, 0xFF000000)},  # 10/8
            action="drop",
        )
    )
    _, action, _ = acl.lookup(Packet(src_ip=0x0A010203, protocol=6))
    assert action == "drop"
    _, action, _ = acl.lookup(Packet(src_ip=0x0B010203, protocol=6))
    assert action == "no_op"


def test_range_match(acl):
    acl.insert(TableEntry(match={"dst_port": (1000, 2000)}, action="drop"))
    assert acl.lookup(Packet(dst_port=1500))[1] == "drop"
    assert acl.lookup(Packet(dst_port=999))[1] == "no_op"
    assert acl.lookup(Packet(dst_port=2000))[1] == "drop"  # inclusive


def test_lpm_match_and_specificity():
    t = MatchActionTable("rt", key=[MatchField("dst_ip", MatchKind.LPM)])
    t.insert(TableEntry(match={"dst_ip": (0x0A000000, 8)}, action="forward", params={"port": 1}))
    t.insert(TableEntry(match={"dst_ip": (0x0A0A0000, 16)}, action="forward", params={"port": 2}))
    entry, action, params = t.lookup(Packet(dst_ip=0x0A0A0101))
    assert params["port"] == 2  # longest prefix wins
    entry, action, params = t.lookup(Packet(dst_ip=0x0A010101))
    assert params["port"] == 1


def test_lpm_zero_length_is_wildcard():
    t = MatchActionTable("rt", key=[MatchField("dst_ip", MatchKind.LPM)])
    t.insert(TableEntry(match={"dst_ip": (0, 0)}, action="forward", params={"port": 9}))
    assert t.lookup(Packet(dst_ip=12345))[2]["port"] == 9


def test_lpm_invalid_length_rejected_at_insert():
    # A malformed LPM spec must fail when the rule is written, not explode
    # mid-traffic on the per-packet lookup path.
    t = MatchActionTable("rt", key=[MatchField("dst_ip", MatchKind.LPM)])
    with pytest.raises(DataPlaneError):
        t.insert(TableEntry(match={"dst_ip": (0, 40)}, action="forward"))
    assert t.num_entries == 0
    t.lookup(Packet(dst_ip=1))  # traffic keeps flowing
    assert t.misses == 1


def test_priority_beats_order(acl):
    acl.insert(TableEntry(match={"protocol": 6}, action="permit", priority=1))
    acl.insert(TableEntry(match={"protocol": 6}, action="drop", priority=10))
    assert acl.lookup(Packet(protocol=6))[1] == "drop"


def test_insertion_order_breaks_priority_ties(acl):
    acl.insert(TableEntry(match={"protocol": 6}, action="permit", priority=5))
    acl.insert(TableEntry(match={"protocol": 6}, action="drop", priority=5))
    assert acl.lookup(Packet(protocol=6))[1] == "permit"


def test_omitted_fields_are_wildcards(acl):
    acl.insert(TableEntry(match={}, action="drop"))
    assert acl.lookup(Packet(src_ip=99, dst_port=99, protocol=99))[1] == "drop"


def test_unknown_field_in_entry_rejected(acl):
    with pytest.raises(DataPlaneError):
        acl.insert(TableEntry(match={"dscp": 1}, action="drop"))


def test_max_entries_enforced():
    t = MatchActionTable(
        "t", key=[MatchField("protocol", MatchKind.EXACT)], max_entries=1
    )
    t.insert(TableEntry(match={"protocol": 6}, action="drop"))
    with pytest.raises(DataPlaneError):
        t.insert(TableEntry(match={"protocol": 17}, action="drop"))


def test_delete_entry(acl):
    entry = TableEntry(match={"protocol": 6}, action="drop")
    acl.insert(entry)
    acl.delete(entry)
    assert acl.num_entries == 0
    with pytest.raises(DataPlaneError):
        acl.delete(entry)


def test_delete_by_equal_entry_scans_its_partition_only():
    t = MatchActionTable(
        "t",
        key=[
            MatchField("tenant_id", MatchKind.EXACT),
            MatchField("protocol", MatchKind.EXACT),
        ],
    )
    kept = TableEntry(match={"tenant_id": 2, "protocol": 6}, action="drop")
    t.insert(TableEntry(match={"tenant_id": 1, "protocol": 6}, action="drop"))
    t.insert(TableEntry(match={"tenant_id": 1, "protocol": 17}, action="drop"))
    t.insert(kept)
    # Equal but not identical objects: found by value, in tenant 1's rows.
    t.delete(TableEntry(match={"tenant_id": 1, "protocol": 17}, action="drop"))
    t.delete(TableEntry(match={"tenant_id": 1, "protocol": 6}, action="drop"))
    assert t.entries == [kept] and t.num_entries == 1
    assert t.partition(1) == [] and t.partition(2) == [(2, kept)]
    with pytest.raises(DataPlaneError):
        t.delete(TableEntry(match={"tenant_id": "x"}, action="drop"))


def test_hit_miss_counters(acl):
    acl.insert(TableEntry(match={"protocol": 6}, action="drop"))
    acl.lookup(Packet(protocol=6))
    acl.lookup(Packet(protocol=17))
    assert acl.hits == 1 and acl.misses == 1


def test_duplicate_key_fields_rejected():
    with pytest.raises(DataPlaneError):
        MatchActionTable(
            "t",
            key=[
                MatchField("protocol", MatchKind.EXACT),
                MatchField("protocol", MatchKind.TERNARY),
            ],
        )


def test_unknown_match_field_name_rejected():
    with pytest.raises(DataPlaneError):
        MatchField("bogus", MatchKind.EXACT)
