"""Checkpoints: periodic full snapshots of controller / fabric state.

A checkpoint freezes everything recovery needs to rebuild a **bit-identical**
control-plane state without replaying history: the physical NF layout, every
live tenant's chain and its *actual* committed stages (stages must be
recorded, not re-derived — a tenant's placement depends on the full history
of arrivals and departures, not just the survivors), the fabric directory
with its stitched segments and link charges, and the drained-switch set.
Shapes are JSON-native with sorted keys (the same discipline as
``MetricsRegistry.snapshot``), carry the state digest they were taken at,
and are CRC-protected on disk.

:class:`CheckpointStore` writes checkpoints atomically (tmp + rename +
fsync), retains the most recent few, and skips corrupt files at load time.

:class:`ControllerDurability` / :class:`FabricDurability` are the attach-side
coordinators: each owns **one** write-ahead log, writes the recovery
manifest, journals every committed op, and checkpoints + compacts every
``checkpoint_every`` ops.  A fabric has one journal for all of its shards:
an op that held every shard lock journals the full fabric digest and may
trigger the checkpoint cadence; an op that held one shard lock journals
that shard's digest and never checkpoints (see
:mod:`repro.fabric.orchestrator`).
"""

from __future__ import annotations

import json
import os
import zlib
from pathlib import Path
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.core.spec import SFC
from repro.durability.wal import WriteAheadLog, _canonical, _fsync_dir
from repro.errors import DurabilityError

if TYPE_CHECKING:  # import cycle: controller/fabric import this module's users
    from repro.controller.controller import SfcController
    from repro.fabric.orchestrator import FabricOrchestrator

MANIFEST_NAME = "MANIFEST.json"
#: 2 = digests over integer bits/s.  A version-1 checkpoint restores to the
#: same state but recorded digests over floats: it is restored unverified.
CHECKPOINT_VERSION = 2


def digests_comparable(checkpoint: dict) -> bool:
    """Whether ``checkpoint`` recorded its digests in this format."""
    return int(checkpoint.get("version", 1)) >= CHECKPOINT_VERSION


# ----------------------------------------------------------------------
# Snapshot / restore shapes
# ----------------------------------------------------------------------
def controller_checkpoint(controller: "SfcController", lsn: int) -> dict:
    """Snapshot one controller's full control-plane state at WAL ``lsn``."""
    return {
        "kind": "controller-checkpoint",
        "version": CHECKPOINT_VERSION,
        "lsn": int(lsn),
        "name": controller.name,
        "physical": controller.state.physical.astype(int).tolist(),
        "tenants": [
            {
                "tenant_id": t,
                "sfc": controller.tenants[t].sfc.to_dict(),
                "stages": list(controller.tenants[t].stages),
            }
            for t in sorted(controller.tenants)
        ],
        "digest": controller.state.digest(),
    }


def restore_controller(controller: "SfcController", checkpoint: dict) -> None:
    """Rebuild a freshly constructed controller from a checkpoint.

    The physical layout is adopted wholesale (it includes NFs left installed
    by since-evicted tenants — part of the live state) and every tenant is
    re-installed at its *recorded* stages through
    :meth:`SfcController.restore_tenant`.  The result must match the
    checkpoint's digest bit for bit (current-format checkpoints only), else
    the checkpoint is rejected.
    """
    if controller.tenants:
        raise DurabilityError("checkpoint restore needs a fresh controller")
    layout = np.asarray(checkpoint["physical"], dtype=bool)
    controller.state.physical = layout
    if controller.with_dataplane:
        created: list[tuple[int, str]] = []
        controller._ensure_physical(np.zeros_like(layout), created)
    for entry in checkpoint["tenants"]:
        controller.restore_tenant(
            SFC.from_dict(entry["sfc"]), tuple(entry["stages"])
        )
    controller._refresh_gauges()
    digest = controller.state.digest()
    if digests_comparable(checkpoint) and digest != checkpoint["digest"]:
        raise DurabilityError(
            f"checkpoint restore diverged: state digest {digest} != "
            f"recorded {checkpoint['digest']}"
        )


def fabric_checkpoint(fabric: "FabricOrchestrator", lsn: int) -> dict:
    """Snapshot a whole fabric: per-switch layouts, the tenant directory
    (segments + links), and the drained set, at fabric WAL ``lsn``."""
    return {
        "kind": "fabric-checkpoint",
        "version": CHECKPOINT_VERSION,
        "lsn": int(lsn),
        "physical": {
            name: fabric.shards[name].state.physical.astype(int).tolist()
            for name in fabric.topology.switch_names
        },
        "tenants": [
            {
                "tenant_id": t,
                "sfc": fabric.tenants[t].sfc.to_dict(),
                "segments": [
                    {
                        "switch": seg.switch,
                        "sfc": seg.sfc.to_dict(),
                        "start": seg.start,
                        "stop": seg.stop,
                        "stages": list(seg.stages),
                    }
                    for seg in fabric.tenants[t].segments
                ],
                "links": [list(key) for key in fabric.tenants[t].links],
            }
            for t in sorted(fabric.tenants)
        ],
        "drained": sorted(fabric.drained),
        "shard_digests": {
            name: fabric.shards[name].state.digest()
            for name in fabric.topology.switch_names
        },
        "digest": fabric.digest(),
    }


def restore_fabric(fabric: "FabricOrchestrator", checkpoint: dict) -> None:
    """Rebuild a freshly constructed fabric from a checkpoint: restore each
    shard's layout, re-install every directory segment at its recorded
    stages, and rebuild the directory (link loads move with it) and drained
    set.  Verified against the recorded per-shard and fabric digests
    (current-format checkpoints only)."""
    from repro.fabric.orchestrator import FabricTenant, Segment

    if fabric.tenants:
        raise DurabilityError("checkpoint restore needs a fresh fabric")
    for name, layout in checkpoint["physical"].items():
        if name not in fabric.shards:
            raise DurabilityError(f"checkpoint references unknown switch {name!r}")
        shard = fabric.shards[name]
        matrix = np.asarray(layout, dtype=bool)
        shard.state.physical = matrix
        if shard.with_dataplane:
            created: list[tuple[int, str]] = []
            shard._ensure_physical(np.zeros_like(matrix), created)
    for entry in checkpoint["tenants"]:
        tenant_id = int(entry["tenant_id"])
        segments = []
        for seg in entry["segments"]:
            seg_sfc = SFC.from_dict(seg["sfc"])
            fabric.shards[seg["switch"]].restore_tenant(
                seg_sfc, tuple(seg["stages"])
            )
            segments.append(
                Segment(
                    switch=seg["switch"],
                    sfc=seg_sfc,
                    start=int(seg["start"]),
                    stop=int(seg["stop"]),
                    stages=tuple(seg["stages"]),
                )
            )
        fabric._book(
            tenant_id,
            FabricTenant(
                sfc=SFC.from_dict(entry["sfc"]),
                segments=tuple(segments),
                links=tuple(tuple(key) for key in entry["links"]),
            ),
        )
    fabric.drained = set(checkpoint["drained"])
    fabric._refresh_gauges()
    if not digests_comparable(checkpoint):
        return
    for name, expected in checkpoint["shard_digests"].items():
        digest = fabric.shards[name].state.digest()
        if digest != expected:
            raise DurabilityError(
                f"checkpoint restore diverged on {name}: digest {digest} != "
                f"recorded {expected}"
            )
    digest = fabric.digest()
    if digest != checkpoint["digest"]:
        raise DurabilityError(
            f"checkpoint restore diverged: fabric digest {digest} != "
            f"recorded {checkpoint['digest']}"
        )


# ----------------------------------------------------------------------
# On-disk store
# ----------------------------------------------------------------------
class CheckpointStore:
    """Atomic, CRC-protected checkpoint files with bounded retention.

    Files are named ``checkpoint-<lsn>.json`` and written tmp + rename +
    dir-fsync, so a crash mid-checkpoint leaves the previous checkpoint
    intact.  :meth:`load_latest` walks newest-first and skips files that
    fail the CRC self-check, so one corrupt checkpoint degrades to the one
    before it instead of failing recovery outright.
    """

    def __init__(
        self, directory: str | Path, keep: int = 3, fault_hook=None
    ) -> None:
        """``fault_hook`` (same seam as the WAL's) is called at
        ``"checkpoint.before-rename"`` / ``"checkpoint.after-rename"`` —
        the window between the atomic rename and the directory fsync that
        makes it durable — and may raise to simulate a crash there."""
        if keep < 1:
            raise DurabilityError("keep must be >= 1")
        self.directory = Path(directory)
        self.keep = keep
        self.fault_hook = fault_hook
        self.directory.mkdir(parents=True, exist_ok=True)

    def _hook(self, site: str) -> None:
        if self.fault_hook is not None:
            self.fault_hook(site)

    def path_for(self, lsn: int) -> Path:
        """The on-disk file a checkpoint at ``lsn`` lives in."""
        return self.directory / f"checkpoint-{lsn:012d}.json"

    def lsns(self) -> list[int]:
        """LSNs of the checkpoints on disk, ascending."""
        out = []
        for path in self.directory.glob("checkpoint-*.json"):
            try:
                out.append(int(path.stem.split("-", 1)[1]))
            except (IndexError, ValueError):
                continue
        return sorted(out)

    def save(self, checkpoint: dict) -> Path:
        """Write one checkpoint atomically and prune old ones."""
        lsn = int(checkpoint["lsn"])
        body = _canonical(checkpoint)
        envelope = {"crc": zlib.crc32(body.encode("utf-8")), "checkpoint": checkpoint}
        path = self.path_for(lsn)
        tmp = path.with_suffix(".tmp")
        with tmp.open("w", encoding="utf-8") as fh:
            json.dump(envelope, fh, sort_keys=True)
            fh.write("\n")
            fh.flush()
            os.fsync(fh.fileno())
        self._hook("checkpoint.before-rename")
        os.replace(tmp, path)
        # Crash window: the rename exists only in the directory's page
        # cache until the dir fsync below — an acknowledged checkpoint
        # must not be able to vanish on power loss.
        self._hook("checkpoint.after-rename")
        _fsync_dir(self.directory)
        for old in self.lsns()[: -self.keep]:
            self.path_for(old).unlink(missing_ok=True)
        return path

    def load(self, lsn: int) -> dict | None:
        """One checkpoint by LSN; ``None`` if missing or corrupt."""
        path = self.path_for(lsn)
        if not path.exists():
            return None
        try:
            envelope = json.loads(path.read_text(encoding="utf-8"))
            checkpoint = envelope["checkpoint"]
            body = _canonical(checkpoint)
            if zlib.crc32(body.encode("utf-8")) != int(envelope["crc"]):
                return None
            return checkpoint
        except (ValueError, KeyError, TypeError):
            return None

    def load_latest(self) -> dict | None:
        """The newest checkpoint that passes its CRC self-check."""
        for lsn in reversed(self.lsns()):
            checkpoint = self.load(lsn)
            if checkpoint is not None:
                return checkpoint
        return None


# ----------------------------------------------------------------------
# Manifests
# ----------------------------------------------------------------------
def _write_manifest(directory: Path, manifest: dict) -> None:
    path = directory / MANIFEST_NAME
    if path.exists():
        return  # manifests are immutable once written
    tmp = path.with_suffix(".tmp")
    with tmp.open("w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    _fsync_dir(directory)


def read_manifest(directory: str | Path) -> dict:
    """The recovery manifest at ``directory`` (raises if absent/corrupt)."""
    path = Path(directory) / MANIFEST_NAME
    if not path.exists():
        raise DurabilityError(f"no {MANIFEST_NAME} in {directory}")
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise DurabilityError(f"corrupt manifest {path}: {exc}") from exc


def _switch_spec_dict(spec) -> dict:
    return spec.to_dict()


def controller_manifest(controller: "SfcController") -> dict:
    """Everything needed to reconstruct an equivalent empty controller."""
    return {
        "kind": "controller",
        "version": CHECKPOINT_VERSION,
        "name": controller.name,
        "switch": _switch_spec_dict(controller.base.switch),
        "num_types": controller.base.num_types,
        "max_recirculations": controller.base.max_recirculations,
        "reconfigure_threshold": controller.reconfigure_threshold,
        "with_dataplane": controller.with_dataplane,
        "fastpath": controller.fastpath is not None,
    }


def fabric_manifest(fabric: "FabricOrchestrator") -> dict:
    """Everything needed to reconstruct an equivalent empty fabric."""
    shard = next(iter(fabric.shards.values()))
    return {
        "kind": "fabric",
        "version": CHECKPOINT_VERSION,
        "num_types": fabric.num_types,
        "partitioner": _partitioner_name(fabric.partitioner),
        "with_dataplane": fabric.with_dataplane,
        "fastpath": shard.fastpath is not None,
        "nodes": [
            {
                "name": node.name,
                "spec": _switch_spec_dict(node.spec),
                "max_recirculations": node.max_recirculations,
            }
            for node in (
                fabric.topology.nodes[n] for n in fabric.topology.switch_names
            )
        ],
        "links": [
            {"a": link.a, "b": link.b, "capacity_gbps": link.capacity_gbps}
            for link in (fabric.topology.links[k] for k in sorted(fabric.topology.links))
        ],
    }


def _partitioner_name(partitioner) -> str:
    from repro.fabric.partitioner import PARTITIONERS

    for name, cls in PARTITIONERS.items():
        if type(partitioner) is cls:
            return name
    raise DurabilityError(
        f"partitioner {type(partitioner).__name__} is not in the registry; "
        f"durable fabrics need a registered partitioner "
        f"(choices: {sorted(PARTITIONERS)})"
    )


# ----------------------------------------------------------------------
# Attach-side coordinators
# ----------------------------------------------------------------------
class _Durability:
    """One durability directory: a manifest, one WAL, a checkpoint store.
    The two public coordinators below differ only in the WAL file name and
    in which manifest and snapshot functions describe their target."""

    WAL_NAME: str
    _manifest: Callable[..., dict]
    _snapshot: Callable[..., dict]

    def __init__(
        self,
        directory: str | Path,
        fsync: str = "always",
        batch_every: int = 64,
        checkpoint_every: int = 256,
        keep_checkpoints: int = 3,
        fault_hook=None,
        start_lsn: int | None = None,
    ) -> None:
        """``checkpoint_every`` committed ops between automatic checkpoints
        (0 = only explicit :meth:`checkpoint` calls)."""
        if checkpoint_every < 0:
            raise DurabilityError("checkpoint_every must be >= 0")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.wal = WriteAheadLog(
            self.directory / self.WAL_NAME,
            fsync=fsync,
            batch_every=batch_every,
            fault_hook=fault_hook,
            start_lsn=start_lsn,
        )
        self.store = CheckpointStore(
            self.directory, keep=keep_checkpoints, fault_hook=fault_hook
        )
        self.checkpoint_every = checkpoint_every
        self.checkpoints_taken = 0
        self._ops_since_checkpoint = 0

    def attach(self, target):
        """Bind to ``target``: write the manifest (first attach only) and
        start journaling its committed ops."""
        _write_manifest(self.directory, self._manifest(target))
        target.durability = self
        return self

    def set_epoch(self, epoch: int) -> None:
        """Stamp subsequent journaled records with fencing token ``epoch``."""
        self.wal.epoch = int(epoch)

    def set_fence(self, fence) -> None:
        """Install ``fence`` (raises :class:`~repro.errors.FencedError`)
        on the journal — a deposed primary's appends then fail fast."""
        self.wal.fence = fence

    def commit_op(self, target, op: str, data: dict, checkpoint: bool = True):
        """Journal one committed op; auto-checkpoint on the policy cadence.
        ``checkpoint=False`` comes from a committer that holds only part of
        ``target`` locked (a fabric's single-shard fast path): a snapshot
        reads all of it, so the cadence waits for the next full-scope op."""
        record = self.wal.append(op, data)
        self._ops_since_checkpoint += 1
        if (
            checkpoint
            and self.checkpoint_every
            and self._ops_since_checkpoint >= self.checkpoint_every
        ):
            self.checkpoint(target)
        return record

    def checkpoint(self, target) -> dict:
        """Snapshot now, then compact the log up to the checkpoint LSN."""
        self.wal.sync()
        checkpoint = self._snapshot(target, self.wal.last_lsn)
        self.store.save(checkpoint)
        self.wal.compact(upto_lsn=checkpoint["lsn"])
        self.checkpoints_taken += 1
        self._ops_since_checkpoint = 0
        return checkpoint

    def close(self) -> None:
        """Clean shutdown: flush + fsync + close the journal."""
        self.wal.close()

    def abort(self) -> None:
        """Simulated process death (fault harness): drop handles without
        the clean-shutdown fsync."""
        self.wal.abort()


class ControllerDurability(_Durability):
    """Durability coordinator for one standalone :class:`SfcController`."""

    WAL_NAME = "wal.jsonl"
    _manifest = staticmethod(controller_manifest)
    _snapshot = staticmethod(controller_checkpoint)

    def __init__(
        self,
        directory: str | Path,
        fsync: str = "always",
        batch_every: int = 64,
        checkpoint_every: int = 256,
        keep_checkpoints: int = 3,
        fault_hook=None,
    ) -> None:
        super().__init__(
            directory, fsync, batch_every, checkpoint_every, keep_checkpoints,
            fault_hook,
        )


class FabricDurability(_Durability):
    """Durability coordinator for a :class:`FabricOrchestrator`: the one
    fabric journal every op of every shard lands in, and fabric-wide
    checkpoints.  The constructor's ``start_lsn`` seeds a fresh WAL's base
    LSN — a promoted standby continues the failed primary's LSN sequence
    with it, so the per-LSN digest oracle stays contiguous across a
    failover."""

    WAL_NAME = "fabric.wal.jsonl"
    _manifest = staticmethod(fabric_manifest)
    _snapshot = staticmethod(fabric_checkpoint)
