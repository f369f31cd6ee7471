"""Crash recovery: checkpoint load + WAL replay, verified bit-for-bit.

Recovery rebuilds a controller (or a whole fabric) from its durability
directory alone:

1. **Manifest** — reconstruct an equivalent *empty* controller/fabric from
   the immutable recovery manifest (switch spec, catalog size, topology,
   partitioner).
2. **Checkpoint** — load the newest CRC-valid checkpoint and restore it
   through the direct-install path (:meth:`SfcController.restore_tenant`),
   landing exactly at the checkpoint's recorded state digest.
3. **Replay** — re-drive every WAL record past the checkpoint LSN through
   the *real* lifecycle entry points (``admit`` / ``evict`` / ``modify`` /
   ``drain`` / ...).  Placement is deterministic given identical state, so
   replay reconverges on the same stages the original run committed — and
   every record carries the post-op digest it must land on (the whole
   state, or for a fabric op that held one shard lock that shard's state),
   turning the log into a per-LSN oracle.  Replay is **idempotent**: the
   :class:`RecoveryEngine` gates on LSN, so a record applied twice (or a
   doubly-replayed prefix) is a no-op.
4. **Re-arm** — attach a fresh durability coordinator, take a checkpoint of
   the recovered state (compacting the log), and snap the flight recorder
   so the recovery itself is preserved in the telemetry ring.

The end state is bit-identical (same :meth:`PipelineState.digest`) to an
uninterrupted run's state at the same last *committed* LSN — the property
the fault-injection suite sweeps across every crash site.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

from repro.controller.controller import SfcController
from repro.core.spec import SFC, ProblemInstance, SwitchSpec
from repro.durability.checkpoint import (
    CheckpointStore,
    ControllerDurability,
    FabricDurability,
    digests_comparable,
    read_manifest,
    restore_controller,
    restore_fabric,
)
from repro.durability.wal import WAL_VERSION, WalRecord, scan_wal
from repro.errors import DurabilityError
from repro.fabric.orchestrator import FabricOrchestrator
from repro.fabric.partitioner import make_partitioner
from repro.fabric.topology import FabricLink, FabricTopology, SwitchNode
from repro.telemetry.recorder import FlightRecorder


@dataclass
class RecoveryReport:
    """What one recovery did and whether it landed where it had to."""

    kind: str
    checkpoint_lsn: int
    last_lsn: int
    replayed: int
    skipped: int
    truncated_bytes: int
    digest: str
    problems: tuple[str, ...] = ()
    #: Non-fatal observations (the all-checkpoints-corrupt fallback).
    notes: tuple[str, ...] = ()
    wall_s: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.problems

    def describe(self) -> str:
        """One-line human-readable summary (the CLI's output)."""
        status = "ok" if self.ok else f"FAILED ({len(self.problems)} problems)"
        return (
            f"recovered {self.kind}: checkpoint lsn {self.checkpoint_lsn}, "
            f"replayed {self.replayed} ops to lsn {self.last_lsn} "
            f"({self.skipped} skipped, {self.truncated_bytes} torn bytes "
            f"dropped) in {self.wall_s * 1e3:.1f} ms — {status}"
        )


class RecoveryEngine:
    """LSN-gated replay: applies each record exactly once.

    ``apply_fn(record)`` re-drives one committed op and returns a list of
    problem strings (empty = the op reconverged).  Records at or below
    ``applied_lsn`` are skipped, which makes replay idempotent — feeding the
    same prefix twice, or resuming replay mid-log, cannot double-apply.
    """

    def __init__(
        self,
        apply_fn: Callable[[WalRecord], list[str]],
        applied_lsn: int = 0,
    ) -> None:
        self.apply_fn = apply_fn
        self.applied_lsn = applied_lsn
        self.replayed = 0
        self.skipped = 0
        self.problems: list[str] = []

    def apply(self, record: WalRecord) -> bool:
        """Apply one record (or skip it if already applied).  Returns
        whether it was applied."""
        if record.lsn <= self.applied_lsn:
            self.skipped += 1
            return False
        self.problems.extend(self.apply_fn(record))
        self.applied_lsn = record.lsn
        self.replayed += 1
        return True

    def replay(self, records) -> None:
        """Apply each record in order (LSN-gated, so re-replays are no-ops)."""
        for record in records:
            self.apply(record)


# ----------------------------------------------------------------------
# Op dispatchers
# ----------------------------------------------------------------------
def apply_controller_record(
    controller: SfcController, record: WalRecord
) -> list[str]:
    """Re-drive one controller WAL record through the real lifecycle path
    and verify the post-op state digest against the one the record carries.
    """
    problems: list[str] = []
    data = record.data
    op = record.op
    if op == "admit":
        result = controller.admit(SFC.from_dict(data["sfc"]))
        if not result.ok:
            problems.append(
                f"lsn {record.lsn}: replayed admit of tenant "
                f"{data['tenant_id']} rejected: {result.reason}"
            )
        elif list(result.stages) != list(data.get("stages", result.stages)):
            problems.append(
                f"lsn {record.lsn}: admit of tenant {data['tenant_id']} "
                f"re-placed at {list(result.stages)} != recorded "
                f"{data['stages']}"
            )
    elif op == "evict":
        result = controller.evict(int(data["tenant_id"]))
        if not result.ok:
            problems.append(
                f"lsn {record.lsn}: replayed evict of tenant "
                f"{data['tenant_id']} rejected: {result.reason}"
            )
    elif op == "modify":
        result = controller.modify(
            int(data["tenant_id"]), SFC.from_dict(data["sfc"])
        )
        if not result.ok:
            problems.append(
                f"lsn {record.lsn}: replayed modify of tenant "
                f"{data['tenant_id']} rejected: {result.reason}"
            )
    elif op == "reconfigure":
        controller.maybe_reconfigure()
    elif op == "catalog":
        controller.install_catalog()
    else:
        problems.append(f"lsn {record.lsn}: unknown controller op {op!r}")
        return problems
    expected = data.get("digest")
    if expected is not None and controller.state.digest() != expected:
        problems.append(
            f"lsn {record.lsn}: state digest {controller.state.digest()} "
            f"!= recorded {expected} after {op}"
        )
    return problems


def apply_fabric_record(
    fabric: FabricOrchestrator, record: WalRecord
) -> list[str]:
    """Re-drive one fabric WAL record and verify whichever post-op digest
    it carries: ``digest`` (the whole fabric — the committer held every
    shard lock) or ``shard_digests`` (the one shard a single-shard fast
    path held).  A record with neither key is replayed unverified."""
    problems: list[str] = []
    data = record.data
    op = record.op
    if op == "admit":
        result = fabric.admit(SFC.from_dict(data["sfc"]))
        if not result.ok:
            problems.append(
                f"lsn {record.lsn}: replayed fabric admit of tenant "
                f"{data['tenant_id']} rejected: {result.reason}"
            )
    elif op == "evict":
        result = fabric.evict(int(data["tenant_id"]))
        if not result.ok:
            problems.append(
                f"lsn {record.lsn}: replayed fabric evict of tenant "
                f"{data['tenant_id']} rejected: {result.reason}"
            )
    elif op == "modify":
        result = fabric.modify(int(data["tenant_id"]), SFC.from_dict(data["sfc"]))
        if result.ok != bool(data.get("ok", True)):
            problems.append(
                f"lsn {record.lsn}: replayed fabric modify of tenant "
                f"{data['tenant_id']} got ok={result.ok}, recorded "
                f"ok={data.get('ok', True)} ({result.reason})"
            )
    elif op == "drain":
        report = fabric.drain(data["switch"])
        if sorted(report.rehomed) != sorted(data.get("rehomed", report.rehomed)):
            problems.append(
                f"lsn {record.lsn}: drain of {data['switch']} re-homed "
                f"{sorted(report.rehomed)} != recorded {data['rehomed']}"
            )
        if sorted(report.evicted) != sorted(data.get("evicted", report.evicted)):
            problems.append(
                f"lsn {record.lsn}: drain of {data['switch']} evicted "
                f"{sorted(report.evicted)} != recorded {data['evicted']}"
            )
    elif op == "undrain":
        fabric.undrain(data["switch"])
    elif op == "reopt_step":
        from repro.globalopt.migrate import apply_recorded_step

        problems.extend(apply_recorded_step(fabric, record))
    else:
        problems.append(f"lsn {record.lsn}: unknown fabric op {op!r}")
        return problems
    expected = data.get("digest")
    if expected is not None and fabric.digest() != expected:
        problems.append(
            f"lsn {record.lsn}: fabric digest {fabric.digest()} != "
            f"recorded {expected} after {op}"
        )
    for name, expected in data.get("shard_digests", {}).items():
        digest = fabric.shards[name].state.digest()
        if digest != expected:
            problems.append(
                f"lsn {record.lsn}: shard {name} digest {digest} != "
                f"recorded {expected} after {op}"
            )
    return problems


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
#: Keys manifests written before the accounting and admission settings were
#: fixed still carry, each with the one value anything ever wrote.
_OLD_MANIFEST_KEYS = {
    "policy": {"check_backplane": True, "check_memory": True, "max_tenants": None},
    "consolidate": True,
    "reserve_physical_block": True,
}


def _refuse_old_settings(manifest: dict) -> None:
    """Load an older manifest's fixed keys only at the values served now:
    any other value describes a fabric this code cannot rebuild."""
    for key, serving in _OLD_MANIFEST_KEYS.items():
        if key not in manifest:
            continue
        value = json.dumps(manifest[key], sort_keys=True)
        if value != json.dumps(serving, sort_keys=True):
            raise DurabilityError(
                f"manifest key {key!r} is {value}; only "
                f"{json.dumps(serving, sort_keys=True)} can be rebuilt"
            )


def fabric_from_manifest(
    manifest: dict,
    with_dataplane: bool | None = None,
    recorder: FlightRecorder | None = None,
) -> FabricOrchestrator:
    """An equivalent *empty* fabric rebuilt from a recovery manifest — the
    starting point for both crash recovery and a hot standby's replay."""
    if manifest.get("kind") != "fabric":
        raise DurabilityError(
            f"expected a fabric manifest, got kind={manifest.get('kind')!r}"
        )
    _refuse_old_settings(manifest)
    topology = FabricTopology(
        nodes=[
            SwitchNode(
                name=node["name"],
                spec=SwitchSpec(**node["spec"]),
                max_recirculations=node["max_recirculations"],
            )
            for node in manifest["nodes"]
        ],
        links=[
            FabricLink(a=link["a"], b=link["b"], capacity_gbps=link["capacity_gbps"])
            for link in manifest["links"]
        ],
    )
    return FabricOrchestrator(
        topology,
        num_types=manifest["num_types"],
        partitioner=make_partitioner(manifest["partitioner"]),
        with_dataplane=(
            manifest["with_dataplane"] if with_dataplane is None else with_dataplane
        ),
        recorder=recorder,
        fastpath=manifest.get("fastpath", False),
    )


#: Recovery's one note on a pre-integer-units directory: replayed like a
#: record with neither digest key — unverified, never a problem — and
#: rewritten in the current format by the post-recovery checkpoint.
OLD_FORMAT_NOTE = "format v1: journalled digests not comparable"


def _checkpoint_fallback_note(store: CheckpointStore, base_lsn: int) -> str | None:
    """The recovery note when checkpoints exist on disk but none loads:
    recovery silently falling back to a full replay would hide real damage.
    """
    retained = store.lsns()
    if not retained:
        return None
    return (
        f"all {len(retained)} retained checkpoints corrupt "
        f"(lsns {retained}); falling back to empty state + full WAL "
        f"replay from lsn {base_lsn}"
    )


def _controller_from_manifest(
    manifest: dict, with_dataplane: bool | None
) -> SfcController:
    _refuse_old_settings(manifest)
    instance = ProblemInstance(
        switch=SwitchSpec(**manifest["switch"]),
        sfcs=(),
        num_types=manifest["num_types"],
        max_recirculations=manifest["max_recirculations"],
    )
    return SfcController(
        instance,
        with_dataplane=(
            manifest["with_dataplane"] if with_dataplane is None else with_dataplane
        ),
        reconfigure_threshold=manifest["reconfigure_threshold"],
        name=manifest["name"],
        recorder=FlightRecorder(),
        fastpath=manifest.get("fastpath", False),
    )


def _recover(
    directory: str | Path,
    kind: str,
    build: Callable[[dict], object],
    restore: Callable[[object, dict], None],
    apply: Callable[[object, WalRecord], list[str]],
    audit: Callable[[object], list[str]],
    digest: Callable[[object], str],
    coordinator: type,
    **policy,
):
    """The one recovery body (module docstring, steps 1-4).  ``build``
    makes the empty target from the manifest, ``restore``/``apply`` are its
    checkpoint and record functions, ``audit`` its post-replay self-check,
    and ``coordinator(directory, **policy)`` re-arms it.  Callers pass
    ``apply`` as a lambda over the module-level name, so a wrapper
    installed on ``recover.apply_*_record`` is the one every record runs."""
    t0 = time.perf_counter()
    directory = Path(directory)
    manifest = read_manifest(directory)
    if manifest.get("kind") != kind:
        raise DurabilityError(
            f"{directory} holds a {manifest.get('kind')!r} manifest, "
            f"not a {kind}"
        )
    target = build(manifest)

    problems: list[str] = []
    notes: list[str] = []
    scan = scan_wal(directory / coordinator.WAL_NAME)
    store = CheckpointStore(directory)
    checkpoint = store.load_latest()
    records = scan.records
    if scan.version < WAL_VERSION:
        records = tuple(
            replace(r, data={
                k: v for k, v in r.data.items()
                if k not in ("digest", "shard_digests")
            })
            for r in records
        )
    if scan.version < WAL_VERSION or (
        checkpoint is not None and not digests_comparable(checkpoint)
    ):
        notes.append(OLD_FORMAT_NOTE)
    checkpoint_lsn = 0
    if checkpoint is not None:
        try:
            restore(target, checkpoint)
            checkpoint_lsn = int(checkpoint["lsn"])
        except DurabilityError as exc:
            problems.append(f"checkpoint restore failed: {exc}")
    else:
        note = _checkpoint_fallback_note(store, scan.base_lsn)
        if note is not None:
            notes.append(note)
            if scan.base_lsn > 0:
                problems.append(
                    f"no loadable checkpoint but the WAL was compacted to "
                    f"base lsn {scan.base_lsn}: records 1..{scan.base_lsn} "
                    f"are unrecoverable"
                )
    engine = RecoveryEngine(
        lambda record: apply(target, record), applied_lsn=checkpoint_lsn
    )
    engine.replay(records)
    problems.extend(engine.problems)
    problems.extend(audit(target))

    durability = coordinator(directory, **policy).attach(target)
    if not problems:
        durability.checkpoint(target)
    report = RecoveryReport(
        kind=kind,
        checkpoint_lsn=checkpoint_lsn,
        last_lsn=scan.last_lsn,
        replayed=engine.replayed,
        skipped=engine.skipped,
        truncated_bytes=durability.wal.truncated_bytes,
        digest=digest(target),
        problems=tuple(problems),
        notes=tuple(notes),
        wall_s=time.perf_counter() - t0,
    )
    target.recorder.snap(
        "recovery",
        kind=report.kind,
        checkpoint_lsn=report.checkpoint_lsn,
        last_lsn=report.last_lsn,
        replayed=report.replayed,
        digest=report.digest,
        ok=report.ok,
    )
    return target, report


def recover_controller(
    directory: str | Path,
    with_dataplane: bool | None = None,
    fsync: str = "always",
    batch_every: int = 64,
    checkpoint_every: int = 256,
) -> tuple[SfcController, RecoveryReport]:
    """Rebuild a controller from its durability directory.

    Returns the recovered controller — with a fresh durability coordinator
    already attached and (when recovery verified clean) a post-recovery
    checkpoint taken — plus the :class:`RecoveryReport`.  ``with_dataplane``
    overrides the manifest's mode (the fig-11-style control-plane-only
    replay recovers faster and is state-wise identical).
    """
    return _recover(
        directory,
        "controller",
        build=lambda manifest: _controller_from_manifest(manifest, with_dataplane),
        restore=restore_controller,
        apply=lambda controller, record: apply_controller_record(controller, record),
        audit=lambda controller: [],
        digest=lambda controller: controller.state.digest(),
        coordinator=ControllerDurability,
        fsync=fsync,
        batch_every=batch_every,
        checkpoint_every=checkpoint_every,
    )


def recover_fabric(
    directory: str | Path,
    with_dataplane: bool | None = None,
    fsync: str = "always",
    batch_every: int = 64,
    checkpoint_every: int = 256,
) -> tuple[FabricOrchestrator, RecoveryReport]:
    """Rebuild a whole fabric from its durability directory.

    The fabric journal is the only redo log: records are replayed through
    the real fabric ops, which re-drive the shard controllers exactly as
    the original run did, and each record's ``digest`` or ``shard_digests``
    is verified at its LSN.  The replayed fabric must also pass
    :meth:`FabricOrchestrator.check_invariant`.
    """
    return _recover(
        directory,
        "fabric",
        build=lambda manifest: fabric_from_manifest(manifest, with_dataplane),
        restore=restore_fabric,
        apply=lambda fabric, record: apply_fabric_record(fabric, record),
        audit=FabricOrchestrator.check_invariant,
        digest=FabricOrchestrator.digest,
        coordinator=FabricDurability,
        fsync=fsync,
        batch_every=batch_every,
        checkpoint_every=checkpoint_every,
    )
