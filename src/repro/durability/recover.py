"""Crash recovery: checkpoint load + WAL replay, verified bit-for-bit.

Recovery rebuilds a controller (or a whole fabric) from its durability
directory alone:

1. **Manifest** — reconstruct an equivalent *empty* controller/fabric from
   the immutable recovery manifest (switch spec, catalog size, policy,
   topology, partitioner).
2. **Checkpoint** — load the newest CRC-valid checkpoint and restore it
   through the direct-install path (:meth:`SfcController.restore_tenant`),
   landing exactly at the checkpoint's recorded state digest.
3. **Replay** — re-drive every WAL record past the checkpoint LSN through
   the *real* lifecycle entry points (``admit`` / ``evict`` / ``modify`` /
   ``drain`` / ...).  Placement is deterministic given identical state, so
   replay reconverges on the same stages the original run committed — and
   every record carries the post-op state digest it must land on, turning
   the log into a per-LSN oracle.  Replay is **idempotent**: the
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

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.controller.admission import AdmissionPolicy
from repro.controller.controller import SfcController
from repro.core.spec import SFC, ProblemInstance, SwitchSpec
from repro.durability.checkpoint import (
    CheckpointStore,
    ControllerDurability,
    FabricDurability,
    read_manifest,
    restore_controller,
    restore_fabric,
)
from repro.durability.wal import WalRecord, scan_wal
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
    #: Non-fatal observations (e.g. shard-log audit notes).
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
    """Re-drive one fabric WAL record and verify the post-op fabric digest."""
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
    return problems


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
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
        policy=AdmissionPolicy(**manifest["policy"]),
        consolidate=manifest["consolidate"],
        reserve_physical_block=manifest["reserve_physical_block"],
        recorder=recorder,
        fastpath=manifest.get("fastpath", False),
    )


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
    t0 = time.perf_counter()
    directory = Path(directory)
    manifest = read_manifest(directory)
    if manifest.get("kind") != "controller":
        raise DurabilityError(
            f"{directory} holds a {manifest.get('kind')!r} manifest, "
            f"not a controller"
        )
    instance = ProblemInstance(
        switch=SwitchSpec(**manifest["switch"]),
        sfcs=(),
        num_types=manifest["num_types"],
        max_recirculations=manifest["max_recirculations"],
    )
    controller = SfcController(
        instance,
        with_dataplane=(
            manifest["with_dataplane"] if with_dataplane is None else with_dataplane
        ),
        policy=AdmissionPolicy(**manifest["policy"]),
        consolidate=manifest["consolidate"],
        reserve_physical_block=manifest["reserve_physical_block"],
        reconfigure_threshold=manifest["reconfigure_threshold"],
        name=manifest["name"],
        recorder=FlightRecorder(),
        fastpath=manifest.get("fastpath", False),
    )

    problems: list[str] = []
    notes: list[str] = []
    scan = scan_wal(directory / ControllerDurability.WAL_NAME)
    store = CheckpointStore(directory)
    checkpoint = store.load_latest()
    checkpoint_lsn = 0
    if checkpoint is not None:
        try:
            restore_controller(controller, checkpoint)
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
        lambda record: apply_controller_record(controller, record),
        applied_lsn=checkpoint_lsn,
    )
    engine.replay(scan.records)
    problems.extend(engine.problems)

    durability = ControllerDurability(
        directory,
        fsync=fsync,
        batch_every=batch_every,
        checkpoint_every=checkpoint_every,
    ).attach(controller)
    if not problems:
        durability.checkpoint(controller)
    report = RecoveryReport(
        kind="controller",
        checkpoint_lsn=checkpoint_lsn,
        last_lsn=scan.last_lsn,
        replayed=engine.replayed,
        skipped=engine.skipped,
        truncated_bytes=durability.wal.truncated_bytes,
        digest=controller.state.digest(),
        problems=tuple(problems),
        notes=tuple(notes),
        wall_s=time.perf_counter() - t0,
    )
    assert controller.recorder is not None
    controller.recorder.snap(
        "recovery",
        kind=report.kind,
        checkpoint_lsn=report.checkpoint_lsn,
        last_lsn=report.last_lsn,
        replayed=report.replayed,
        digest=report.digest,
        ok=report.ok,
    )
    return controller, report


def recover_fabric(
    directory: str | Path,
    with_dataplane: bool | None = None,
    fsync: str = "always",
    batch_every: int = 64,
    checkpoint_every: int = 256,
) -> tuple[FabricOrchestrator, RecoveryReport]:
    """Rebuild a whole fabric from its durability directory.

    The fabric manifest log is the authoritative redo log: records are
    replayed through the real fabric ops, which re-drive the shard
    controllers exactly as the original run did.  The per-switch WAL shards
    serve as an audit trail: each recovered shard's digest must be *some*
    state that shard actually committed (its genesis state, its checkpoint
    state, or a state journaled in its shard log) — violations are reported
    as non-fatal notes.
    """
    t0 = time.perf_counter()
    directory = Path(directory)
    manifest = read_manifest(directory)
    if manifest.get("kind") != "fabric":
        raise DurabilityError(
            f"{directory} holds a {manifest.get('kind')!r} manifest, "
            f"not a fabric"
        )
    fabric = fabric_from_manifest(manifest, with_dataplane=with_dataplane)
    topology = fabric.topology
    genesis_digests = {
        name: fabric.shards[name].state.digest()
        for name in topology.switch_names
    }

    problems: list[str] = []
    notes: list[str] = []
    scan = scan_wal(directory / FabricDurability.WAL_NAME)
    store = CheckpointStore(directory)
    checkpoint = store.load_latest()
    checkpoint_lsn = 0
    if checkpoint is not None:
        try:
            restore_fabric(fabric, checkpoint)
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
        lambda record: apply_fabric_record(fabric, record),
        applied_lsn=checkpoint_lsn,
    )
    engine.replay(scan.records)
    problems.extend(engine.problems)
    problems.extend(fabric.check_invariant())

    durability = FabricDurability(
        directory,
        fsync=fsync,
        batch_every=batch_every,
        checkpoint_every=checkpoint_every,
    )
    # Audit the shard logs *before* attach (attaching truncates torn shard
    # tails and a post-recovery checkpoint compacts them away entirely).
    ckpt_digests = checkpoint["shard_digests"] if checkpoint else {}
    for name in topology.switch_names:
        shard_scan = scan_wal(durability.shard_wal_path(name))
        committed = {genesis_digests[name]}
        if name in ckpt_digests:
            committed.add(ckpt_digests[name])
        committed.update(
            record.data["digest"]
            for record in shard_scan.records
            if "digest" in record.data
        )
        recovered = fabric.shards[name].state.digest()
        if recovered not in committed:
            notes.append(
                f"shard {name}: recovered digest {recovered} matches no "
                f"state in its audit log ({len(shard_scan.records)} records)"
            )
    durability.attach(fabric)
    if not problems:
        durability.checkpoint(fabric)
    report = RecoveryReport(
        kind="fabric",
        checkpoint_lsn=checkpoint_lsn,
        last_lsn=scan.last_lsn,
        replayed=engine.replayed,
        skipped=engine.skipped,
        truncated_bytes=durability.wal.truncated_bytes,
        digest=fabric.digest(),
        problems=tuple(problems),
        notes=tuple(notes),
        wall_s=time.perf_counter() - t0,
    )
    fabric.recorder.snap(
        "recovery",
        kind=report.kind,
        checkpoint_lsn=report.checkpoint_lsn,
        last_lsn=report.last_lsn,
        replayed=report.replayed,
        digest=report.digest,
        ok=report.ok,
    )
    return fabric, report
