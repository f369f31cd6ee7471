"""Write-ahead log unit tests: LSN sequencing, CRC protection, torn-tail
truncation, fsync-policy durability windows, and header-based compaction."""

import json

import pytest

from repro.durability import (
    WalRecord,
    WriteAheadLog,
    corrupt_tail,
    lose_unsynced_tail,
    replay_iter,
    scan_wal,
    tear_tail,
)
from repro.durability.wal import HEADER_OP, WAL_VERSION
from repro.errors import DurabilityError


def open_wal(tmp_path, **kwargs):
    return WriteAheadLog(tmp_path / "wal.jsonl", **kwargs)


def test_append_assigns_contiguous_lsns_and_survives_reopen(tmp_path):
    wal = open_wal(tmp_path)
    records = [wal.append("admit", {"tenant_id": t}) for t in range(5)]
    assert [r.lsn for r in records] == [1, 2, 3, 4, 5]
    wal.close()

    reopened = open_wal(tmp_path)
    assert reopened.last_lsn == 5
    assert reopened.open_problems == ()
    on_disk = reopened.records()
    assert on_disk == records
    assert reopened.append("evict", {"tenant_id": 0}).lsn == 6
    reopened.close()


def test_scan_of_missing_and_empty_file(tmp_path):
    assert scan_wal(tmp_path / "nope.jsonl").records == ()
    (tmp_path / "empty.jsonl").write_bytes(b"")
    scan = scan_wal(tmp_path / "empty.jsonl")
    assert scan.records == () and scan.dropped_bytes == 0


def test_header_op_is_reserved(tmp_path):
    wal = open_wal(tmp_path)
    with pytest.raises(DurabilityError):
        wal.append(HEADER_OP, {})
    wal.close()


def test_torn_tail_is_truncated_on_open(tmp_path):
    wal = open_wal(tmp_path)
    for t in range(4):
        wal.append("admit", {"tenant_id": t})
    wal.close()
    dropped = tear_tail(wal.path)
    assert dropped > 0

    reopened = open_wal(tmp_path)
    assert reopened.last_lsn == 3
    assert reopened.truncated_bytes > 0
    assert reopened.open_problems  # the torn line is reported
    assert [r.lsn for r in reopened.records()] == [1, 2, 3]
    # The log keeps sequencing from the surviving prefix.
    assert reopened.append("evict", {"tenant_id": 9}).lsn == 4
    reopened.close()


def test_crc_catches_corrupted_record(tmp_path):
    wal = open_wal(tmp_path)
    for t in range(3):
        wal.append("admit", {"tenant_id": t})
    wal.close()
    assert corrupt_tail(wal.path)

    scan = scan_wal(wal.path)
    assert [r.lsn for r in scan.records] == [1, 2]
    assert scan.dropped_bytes > 0
    reopened = open_wal(tmp_path)
    assert reopened.last_lsn == 2
    reopened.close()


def test_lsn_discontinuity_ends_the_valid_prefix(tmp_path):
    path = tmp_path / "wal.jsonl"
    wal = WriteAheadLog(path)
    wal.append("admit", {"tenant_id": 0})
    wal.close()
    # Append a record that skips an LSN (valid CRC, wrong sequence).
    with path.open("ab") as fh:
        fh.write(WalRecord(lsn=5, op="admit", data={}).to_line())
    scan = scan_wal(path)
    assert [r.lsn for r in scan.records] == [1]
    assert any("discontinuity" in p for p in scan.problems)


def test_wholly_corrupt_header_yields_empty_trusted_prefix(tmp_path):
    path = tmp_path / "wal.jsonl"
    path.write_text("not json at all\n", encoding="utf-8")
    scan = scan_wal(path)
    assert scan.records == ()
    assert scan.dropped_bytes > 0
    # Opening resets the file to a fresh header; appends restart at LSN 1.
    wal = WriteAheadLog(path)
    assert wal.append("admit", {}).lsn == 1
    wal.close()


def test_fsync_off_keeps_durable_offset_at_header(tmp_path):
    wal = open_wal(tmp_path, fsync="off")
    header_end = wal.offset
    for t in range(3):
        wal.append("admit", {"tenant_id": t})
    assert wal.offset > header_end
    assert wal.durable_offset == 0  # nothing synced since open
    wal.sync()
    assert wal.durable_offset == wal.offset
    wal.close()


def test_fsync_batch_syncs_every_n_appends(tmp_path):
    wal = open_wal(tmp_path, fsync="batch", batch_every=3)
    wal.append("a", {})
    wal.append("b", {})
    assert wal.durable_offset < wal.offset  # batch not full yet
    wal.append("c", {})
    assert wal.durable_offset == wal.offset  # third append hit the batch
    wal.abort()


def test_lose_unsynced_tail_drops_exactly_the_unsynced_records(tmp_path):
    wal = open_wal(tmp_path, fsync="batch", batch_every=2)
    wal.append("a", {"n": 1})
    wal.append("b", {"n": 2})  # batch boundary: synced here
    wal.append("c", {"n": 3})  # buffered + written, never fsynced
    durable = wal.durable_offset
    wal.abort()
    lose_unsynced_tail(wal.path, durable)

    reopened = open_wal(tmp_path)
    assert [r.op for r in reopened.records()] == ["a", "b"]
    reopened.close()


def test_fsync_always_makes_every_append_durable(tmp_path):
    wal = open_wal(tmp_path, fsync="always")
    wal.append("a", {})
    assert wal.durable_offset == wal.offset
    wal.abort()
    lose_unsynced_tail(wal.path, wal.durable_offset)  # no-op by construction
    reopened = open_wal(tmp_path)
    assert [r.op for r in reopened.records()] == ["a"]
    reopened.close()


def test_compaction_preserves_lsn_continuity(tmp_path):
    wal = open_wal(tmp_path)
    for t in range(6):
        wal.append("admit", {"tenant_id": t})
    dropped = wal.compact(upto_lsn=4)
    assert dropped == 4
    assert [r.lsn for r in wal.records()] == [5, 6]
    assert wal.last_lsn == 6
    # Appends continue the global sequence, and a reopen agrees.
    assert wal.append("evict", {}).lsn == 7
    wal.close()
    reopened = open_wal(tmp_path)
    assert reopened.last_lsn == 7
    assert [r.lsn for r in reopened.records()] == [5, 6, 7]
    reopened.close()


def test_compact_everything_leaves_base_at_last_lsn(tmp_path):
    wal = open_wal(tmp_path)
    for t in range(3):
        wal.append("admit", {"tenant_id": t})
    wal.compact(upto_lsn=3)
    assert wal.records() == []
    assert wal.last_lsn == 3
    assert wal.append("admit", {}).lsn == 4
    wal.close()


def _rewrite_oracle(path, upto_lsn: int) -> bytes:
    """What compaction wrote when it parsed the log and re-encoded what it
    kept: a header at the new base, then each kept record's line."""
    scan = scan_wal(path)
    base = max(scan.base_lsn, min(upto_lsn, scan.last_lsn))
    header = WalRecord(
        lsn=base, op=HEADER_OP, data={"version": WAL_VERSION, "base_lsn": base}
    ).to_line()
    return header + b"".join(r.to_line() for r in scan.records if r.lsn > upto_lsn)


@pytest.mark.parametrize("where", ["base", "middle", "last"])
def test_compaction_output_matches_a_parse_and_rewrite(tmp_path, where):
    wal = open_wal(tmp_path, fsync="off", epoch=3)
    for t in range(4):
        wal.append("admit", {"tenant_id": t, "bw": t / 3, "name": f"t\u00e9{t}"})
    wal.compact(upto_lsn=2)  # a nonzero base to compact from again
    for _round in range(2):
        for t in range(5):
            wal.append("modify", {"tenant_id": t, "nested": {"z": [t, None], "a": 1.5}})
        wal.sync()
        upto = {
            "base": wal._base_lsn,
            "middle": (wal._base_lsn + wal.last_lsn) // 2,
            "last": wal.last_lsn,
        }[where]
        expected = _rewrite_oracle(wal.path, upto)
        before = len(wal.records())
        dropped = wal.compact(upto_lsn=upto)
        assert wal.path.read_bytes() == expected
        assert len(wal.records()) == before - dropped
        assert wal.offset == len(expected)
    wal.append("evict", {"tenant_id": 0})
    wal.close()
    reopened = open_wal(tmp_path)
    assert reopened.open_problems == ()
    assert [r.lsn for r in reopened.records()][-1] == reopened.last_lsn == 15
    reopened.close()


def test_compaction_keeps_a_corrupt_record_for_the_next_open_to_report(tmp_path):
    wal = open_wal(tmp_path, fsync="off")
    for t in range(6):
        wal.append("admit", {"tenant_id": t})
    wal.sync()
    # Silent on-disk corruption of record 5, in the tail compaction keeps.
    raw = bytearray(wal.path.read_bytes())
    lines = raw.split(b"\n")
    at = sum(len(line) + 1 for line in lines[:5]) + len(lines[5]) // 2
    raw[at] ^= 0x10
    wal.path.write_bytes(bytes(raw))
    assert wal.compact(upto_lsn=3) == 3
    wal.close()
    reopened = open_wal(tmp_path)
    assert any("invalid record" in p for p in reopened.open_problems)
    assert reopened.truncated_bytes > 0
    assert reopened.last_lsn == 4  # records 5 and 6 are gone, and it says so
    reopened.close()


def test_record_line_format_is_crc_enveloped_jsonl(tmp_path):
    wal = open_wal(tmp_path)
    wal.append("admit", {"tenant_id": 7})
    wal.sync()
    lines = wal.path.read_bytes().decode("utf-8").splitlines()
    wal.close()
    assert len(lines) == 2  # header + record
    outer = json.loads(lines[1])
    assert set(outer) == {"crc", "rec"}
    assert outer["rec"]["lsn"] == 1
    assert outer["rec"]["op"] == "admit"
    assert outer["rec"]["data"] == {"tenant_id": 7}


def test_replay_iter_filters_by_lsn(tmp_path):
    wal = open_wal(tmp_path)
    for t in range(5):
        wal.append("admit", {"tenant_id": t})
    window = list(replay_iter(wal.records(), after_lsn=3))
    wal.close()
    assert [r.lsn for r in window] == [4, 5]


def test_constructor_validation(tmp_path):
    with pytest.raises(DurabilityError):
        open_wal(tmp_path, fsync="sometimes")
    with pytest.raises(DurabilityError):
        open_wal(tmp_path, batch_every=0)


def test_fault_hook_sites_fire_in_order(tmp_path):
    sites = []
    wal = open_wal(tmp_path, fsync="always", fault_hook=sites.append)
    wal.append("admit", {})
    wal.abort()
    assert sites == [
        "wal.before-append",
        "wal.after-append",
        "wal.before-fsync",
        "wal.after-fsync",
    ]
