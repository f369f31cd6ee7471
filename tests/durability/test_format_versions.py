"""On-disk format versions mean something: a directory written before
bandwidth moved to integer bits/s (WAL / checkpoint version 1, digests over
float sums) still loads — replayed and restored *unverified*, with one note
and never a problem — and recovery's own checkpoint rewrites it as version 2.

``data/v1_fabric`` was written by the parent commit (see
``data/make_v1_fabric.py``): a checkpoint holding a stitched tenant, then a
24-record tail with a second one, modifies, evicts and a drain/undrain.
"""

import json
import shutil
from pathlib import Path

import pytest

from repro.durability import (
    ControllerDurability,
    FabricDurability,
    recover_controller,
    recover_fabric,
    scan_wal,
)
from repro.durability.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointStore,
    fabric_manifest,
    read_manifest,
    restore_fabric,
)
from repro.durability.recover import OLD_FORMAT_NOTE, fabric_from_manifest
from repro.durability.wal import HEADER_OP, WAL_VERSION, WalRecord
from repro.errors import DurabilityError
from tests.durability.conftest import chain, make_controller

V1_FABRIC = Path(__file__).parent / "data" / "v1_fabric"


@pytest.fixture
def v1_dir(tmp_path):
    """A scratch copy: recovery re-arms (and rewrites) what it recovers."""
    copy = tmp_path / "fabric"
    shutil.copytree(V1_FABRIC, copy)
    return copy


def test_the_committed_directory_really_is_version_1():
    scan = scan_wal(V1_FABRIC / FabricDurability.WAL_NAME)
    assert scan.version == 1 and len(scan.records) >= 20
    assert all("digest" in r.data for r in scan.records)
    checkpoint = CheckpointStore(V1_FABRIC).load_latest()
    assert checkpoint["version"] == 1
    assert any(len(t["segments"]) > 1 for t in checkpoint["tenants"])
    assert (WAL_VERSION, CHECKPOINT_VERSION) == (2, 2)


def test_v1_fabric_directory_recovers_unverified_with_one_note(v1_dir):
    expected = json.loads((v1_dir / "EXPECTED.json").read_text())
    fabric, report = recover_fabric(v1_dir)
    assert report.ok, report.problems
    assert report.notes == (OLD_FORMAT_NOTE,)
    assert OLD_FORMAT_NOTE == "format v1: journalled digests not comparable"
    assert report.replayed == expected["tail_records"]
    assert report.last_lsn == expected["last_lsn"]
    assert fabric.check_invariant() == []
    assert {
        str(t): list(record.switches) for t, record in fabric.tenants.items()
    } == expected["tenants"]
    assert sorted(
        t for t, record in fabric.tenants.items() if record.stitched
    ) == expected["stitched"]
    assert sorted(fabric.drained) == expected["drained"]
    digest = fabric.digest()
    fabric.durability.close()

    # Recovery's post-recovery checkpoint rewrote the directory as v2 ...
    scan = scan_wal(v1_dir / FabricDurability.WAL_NAME)
    assert scan.version == WAL_VERSION and scan.records == ()
    newest = CheckpointStore(v1_dir).load_latest()
    assert newest["version"] == CHECKPOINT_VERSION and newest["digest"] == digest

    # ... so the next recovery verifies every digest again and says nothing.
    again, second = recover_fabric(v1_dir)
    assert second.ok and second.notes == () and again.digest() == digest
    assert again.admit(chain(900)).ok
    assert "digest" in again.durability.wal.records()[-1].data
    again.durability.close()


def test_v2_digests_are_still_verified(v1_dir):
    """The unverified treatment is the old format's alone: the same damage
    in a version-2 journal is a problem at its LSN."""
    fabric, _report = recover_fabric(v1_dir)
    assert fabric.admit(chain(901)).ok and fabric.admit(chain(902)).ok
    fabric.durability.close()
    wal_path = v1_dir / FabricDurability.WAL_NAME
    scan = scan_wal(wal_path)
    lines = [
        WalRecord(
            scan.base_lsn, HEADER_OP,
            {"version": WAL_VERSION, "base_lsn": scan.base_lsn},
        ).to_line()
    ]
    for record in scan.records:
        data = dict(record.data)
        if record.lsn == scan.base_lsn + 1:
            data["digest"] = "0" * 32
        lines.append(WalRecord(record.lsn, record.op, data, record.epoch).to_line())
    wal_path.write_bytes(b"".join(lines))
    _fabric, report = recover_fabric(v1_dir)
    assert not report.ok and report.notes == ()
    assert f"lsn {scan.base_lsn + 1}" in report.problems[0]


def test_v1_controller_directory_recovers_unverified(tmp_path, tiny_instance):
    """The controller journal follows the same rule.  (A v1 controller
    directory is forged here: only the version fields and the digests'
    values differ between the formats.)"""
    controller = make_controller(tiny_instance)
    durability = ControllerDurability(tmp_path, checkpoint_every=0)
    durability.attach(controller)
    for t in (1, 2, 3):
        assert controller.admit(chain(t, bandwidth_gbps=0.1 * t)).ok
    durability.checkpoint(controller)
    assert controller.evict(2).ok
    assert controller.admit(chain(4, bandwidth_gbps=0.7)).ok
    digest = controller.state.digest()
    durability.close()

    wal_path = tmp_path / ControllerDurability.WAL_NAME
    scan = scan_wal(wal_path)
    lines = [
        WalRecord(
            scan.base_lsn, HEADER_OP, {"version": 1, "base_lsn": scan.base_lsn}
        ).to_line()
    ]
    lines += [
        WalRecord(r.lsn, r.op, {**r.data, "digest": "f" * 32}, r.epoch).to_line()
        for r in scan.records
    ]
    wal_path.write_bytes(b"".join(lines))
    store = CheckpointStore(tmp_path)
    store.save({**store.load_latest(), "version": 1, "digest": "f" * 32})

    recovered, report = recover_controller(tmp_path, with_dataplane=False)
    assert report.ok, report.problems
    assert report.notes == (OLD_FORMAT_NOTE,)
    assert recovered.state.digest() == digest
    recovered.durability.close()


def test_a_v2_checkpoint_that_diverges_is_still_rejected(v1_dir):
    fabric, _report = recover_fabric(v1_dir)
    fabric.durability.close()
    store = CheckpointStore(v1_dir)
    store.save({**store.load_latest(), "digest": "0" * 32})
    fresh = fabric_from_manifest(read_manifest(v1_dir))
    with pytest.raises(DurabilityError, match="diverged"):
        restore_fabric(fresh, store.load_latest())


SERVING_POLICY = {"check_backplane": True, "check_memory": True, "max_tenants": None}


@pytest.mark.parametrize(
    "key, value",
    [
        (None, None),
        ("consolidate", False),
        ("reserve_physical_block", False),
        ("policy", {**SERVING_POLICY, "max_tenants": 8}),
        ("policy", {**SERVING_POLICY, "check_memory": False}),
        ("policy", {**SERVING_POLICY, "check_backplane": False}),
    ],
)
def test_old_manifest_keys_load_only_at_the_serving_values(key, value):
    """Manifests no longer write ``policy``, ``consolidate`` or
    ``reserve_physical_block``; an older one that holds them still loads at
    the serving values (the v1 fixture) and is refused, naming the key, at
    any other."""
    manifest = read_manifest(V1_FABRIC)
    if key is None:
        assert manifest["policy"] == SERVING_POLICY
        fabric = fabric_from_manifest(manifest)
        fresh = fabric_manifest(fabric)
        assert not {"policy", "consolidate", "reserve_physical_block"} & set(fresh)
        assert fabric_from_manifest(fresh).digest() == fabric.digest()
        return
    manifest[key] = value
    with pytest.raises(DurabilityError, match=f"manifest key '{key}'"):
        fabric_from_manifest(manifest)
