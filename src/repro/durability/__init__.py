"""Durability & crash recovery: write-ahead log, checkpoints, recovery.

The control plane built in :mod:`repro.controller` and :mod:`repro.fabric`
keeps its incremental state bit-identical to a from-scratch recomputation;
this package makes that state survive the process.  Committed lifecycle ops
are journaled to an append-only CRC-protected WAL (:mod:`.wal`), periodic
checkpoints snapshot the full state and compact the log (:mod:`.checkpoint`),
and recovery (:mod:`.recover`) rebuilds a **bit-identical** controller or
fabric — checkpoint restore plus idempotent WAL replay through the real
lifecycle paths, verified against the per-LSN digest oracle the log itself
carries.  :mod:`.faults` is the deterministic crash-injection harness the
test suite sweeps over every durability boundary.
"""

from repro.durability.checkpoint import (
    CheckpointStore,
    ControllerDurability,
    FabricDurability,
    controller_checkpoint,
    fabric_checkpoint,
    read_manifest,
    restore_controller,
    restore_fabric,
)
from repro.durability.faults import (
    CHECKPOINT_SITES,
    DISK_MODES,
    DURABILITY_SITES,
    WAL_SITES,
    CountdownCrash,
    CrashError,
    CrashPoint,
    FaultInjector,
    corrupt_tail,
    crash_sites,
    lose_unsynced_tail,
    mutilate,
    tear_tail,
)
from repro.durability.recover import (
    RecoveryEngine,
    RecoveryReport,
    apply_controller_record,
    apply_fabric_record,
    fabric_from_manifest,
    recover_controller,
    recover_fabric,
)
from repro.durability.wal import (
    FSYNC_POLICIES,
    WalRecord,
    WalScan,
    WalTailer,
    WriteAheadLog,
    replay_iter,
    scan_wal,
)

__all__ = [
    "CheckpointStore",
    "ControllerDurability",
    "FabricDurability",
    "controller_checkpoint",
    "fabric_checkpoint",
    "read_manifest",
    "restore_controller",
    "restore_fabric",
    "CHECKPOINT_SITES",
    "DISK_MODES",
    "DURABILITY_SITES",
    "WAL_SITES",
    "CountdownCrash",
    "CrashError",
    "CrashPoint",
    "FaultInjector",
    "corrupt_tail",
    "crash_sites",
    "lose_unsynced_tail",
    "mutilate",
    "tear_tail",
    "RecoveryEngine",
    "RecoveryReport",
    "apply_controller_record",
    "apply_fabric_record",
    "fabric_from_manifest",
    "recover_controller",
    "recover_fabric",
    "FSYNC_POLICIES",
    "WalRecord",
    "WalScan",
    "WalTailer",
    "WriteAheadLog",
    "replay_iter",
    "scan_wal",
]
