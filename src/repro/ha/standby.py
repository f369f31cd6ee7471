"""The hot standby: replays shipped WAL frames into a live shadow fabric.

A :class:`StandbyReplica` consumes the frame stream of
:mod:`repro.ha.ship` and maintains a fabric that is **bit-identical** to
the primary's at every applied LSN.  Replay goes through exactly the
machinery crash recovery uses — :func:`fabric_from_manifest` for the empty
shell, :func:`restore_fabric` for checkpoint frames, and an LSN-gated
:class:`RecoveryEngine` driving :func:`apply_fabric_record` for record
frames — so the standby *is* a continuously-running recovery, not a second
implementation of one.

Three guards keep the shadow honest:

* **Epoch gate** — every frame carries its sender's lease epoch; frames
  below the highest accepted epoch are dropped and counted.  The moment a
  new primary's stream (or :meth:`observe_epoch` at takeover) raises the
  bar, a deposed primary's frames can never touch the replica again.
* **CRC re-verification** — record frames carry the WAL line verbatim and
  the replica re-parses it through the same CRC check recovery uses; a byte
  corrupted in flight kills the frame, not the fabric.
* **Digest cross-check** — journaled records carry the primary's post-op
  digest, and :func:`apply_fabric_record` compares it against the shadow
  fabric on every record that has one: a divergence is a problem reported
  at the LSN it happens.  The newest digest is remembered, so
  :meth:`promote` can repeat the comparison at the exact promoted LSN.

Promotion (:meth:`promote`) verifies that retained digest, then flips the
fabric to the primary role at the new epoch via
:meth:`FabricOrchestrator.promote` — attaching a fresh durability
coordinator whose WAL continues the primary's LSN sequence.
"""

from __future__ import annotations

import math
import time
from pathlib import Path
from typing import Callable

from repro.durability.recover import (
    RecoveryEngine,
    apply_fabric_record,
    fabric_from_manifest,
    restore_fabric,
)
from repro.durability.wal import _parse_line
from repro.errors import DurabilityError
from repro.telemetry.metrics import REPLICATION_LAG_BUCKETS, MetricsRegistry
from repro.telemetry.recorder import FlightRecorder


def _integer(value, what: str) -> int:
    """``value`` as an epoch or LSN: a JSON integer, never a bool."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise DurabilityError(f"{what} must be an integer, got {value!r:.40}")
    return value


class StandbyReplica:
    """One hot standby, fed frames by a :class:`~repro.ha.ship.WalShipper`
    (in-process or via a :class:`~repro.ha.ship.ReplicationListener`)."""

    def __init__(
        self,
        with_dataplane: bool | None = None,
        metrics: MetricsRegistry | None = None,
        recorder: FlightRecorder | None = None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        """``with_dataplane`` overrides the manifest's mode — a
        control-plane-only shadow replays faster and is state-wise
        identical."""
        self.with_dataplane = with_dataplane
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.recorder = recorder if recorder is not None else FlightRecorder()
        self.clock = clock
        self.fabric = None
        self.manifest: dict | None = None
        self._engine: RecoveryEngine | None = None
        #: Highest sender epoch accepted so far — the receive-side fence.
        self.accepted_epoch = 0
        #: The primary's last shipped LSN (from heartbeats) — lag baseline.
        self.primary_lsn = 0
        #: Digest carried by the newest applied record, and its LSN — the
        #: promote-time oracle (only valid when the LSNs line up).
        self.last_digest: str | None = None
        self.last_digest_lsn = 0
        self.records_applied = 0
        self.checkpoints_restored = 0
        self.frames_rejected = 0
        self.problems: list[str] = []

    # ------------------------------------------------------------------
    @property
    def applied_lsn(self) -> int:
        """LSN the shadow fabric currently sits at (0 before the manifest)."""
        return self._engine.applied_lsn if self._engine is not None else 0

    def observe_epoch(self, epoch: int) -> None:
        """Raise the epoch bar without a frame — a standby that just won
        the lease calls this *before* its final catch-up, so the deposed
        primary's straggler frames are already un-acceptable."""
        self.accepted_epoch = max(self.accepted_epoch, int(epoch))

    # ------------------------------------------------------------------
    def feed(self, frame: dict) -> bool:
        """Apply one frame.  Returns whether it was accepted (stale-epoch
        frames are dropped and counted, never applied).  Raises
        :class:`DurabilityError` on a malformed frame, leaving the replica
        as it was — the transport drops the connection and the next one
        resyncs."""
        kind = frame.get("kind")
        epoch = _integer(frame.get("epoch", 0), "frame epoch")
        if epoch < self.accepted_epoch:
            self.frames_rejected += 1
            self.metrics.inc("ha.frames_rejected_stale_epoch")
            return False
        if kind == "manifest":
            self._feed_manifest(frame)
        elif kind == "checkpoint":
            self._feed_checkpoint(frame)
        elif kind == "record":
            self._feed_record(frame)
        elif kind == "heartbeat":
            self._feed_heartbeat(frame)
        elif kind == "hello":
            pass  # harmless echo; hellos are transport handshake, not state
        else:
            raise DurabilityError(f"unknown frame kind {kind!r:.40}")
        self.accepted_epoch = epoch
        return True

    def _feed_manifest(self, frame: dict) -> None:
        manifest = frame.get("manifest")
        if not isinstance(manifest, dict):
            raise DurabilityError("manifest frame without a manifest body")
        if self.fabric is not None:
            return  # manifests are immutable; a reconnect re-ships it
        self.manifest = manifest
        self.fabric = fabric_from_manifest(
            manifest, with_dataplane=self.with_dataplane, recorder=self.recorder
        )
        self.fabric.role = "standby"
        self._engine = RecoveryEngine(
            lambda record: apply_fabric_record(self.fabric, record),
            applied_lsn=0,
        )

    def _feed_checkpoint(self, frame: dict) -> None:
        checkpoint = frame.get("checkpoint")
        if not isinstance(checkpoint, dict):
            raise DurabilityError("checkpoint frame without a checkpoint body")
        lsn = _integer(checkpoint.get("lsn"), "checkpoint lsn")
        if self.manifest is None:
            raise DurabilityError("checkpoint frame before the manifest")
        if lsn <= self.applied_lsn:
            return  # we are already past it; the LSN gate covers the rest
        # restore_fabric needs a *fresh* fabric: rebuild the empty shell,
        # land it on the checkpoint state, and only then swap it in.
        fabric = fabric_from_manifest(
            self.manifest,
            with_dataplane=self.with_dataplane,
            recorder=self.recorder,
        )
        fabric.role = "standby"
        try:
            restore_fabric(fabric, checkpoint)
        except (KeyError, TypeError, ValueError) as exc:
            raise DurabilityError(
                f"malformed checkpoint body: {type(exc).__name__}: {exc}"
            ) from exc
        self.fabric = fabric
        self._engine = RecoveryEngine(
            lambda record: apply_fabric_record(self.fabric, record),
            applied_lsn=lsn,
        )
        self.last_digest = checkpoint.get("digest")
        self.last_digest_lsn = lsn
        self.checkpoints_restored += 1
        self.metrics.inc("ha.checkpoints_restored")
        self.recorder.snap("ha-checkpoint-restore", lsn=lsn)

    def _feed_record(self, frame: dict) -> None:
        line = frame.get("line")
        if not isinstance(line, str):
            raise DurabilityError("record frame without a line")
        record = _parse_line(line.encode("utf-8") + b"\n")
        if record is None:
            raise DurabilityError(
                "record frame failed CRC re-verification (corrupt in flight)"
            )
        if self._engine is None:
            raise DurabilityError("record frame before the manifest")
        if record.lsn <= self.applied_lsn:
            self._engine.skipped += 1
            return
        digest = record.data.get("digest")
        before = len(self._engine.problems)
        self._engine.apply(record)
        new_problems = self._engine.problems[before:]
        if new_problems:
            self.problems.extend(new_problems)
            self.metrics.inc("ha.replay_problems", len(new_problems))
        if digest is not None:
            self.metrics.inc("ha.digest_verifications")
            self.last_digest = digest
            self.last_digest_lsn = record.lsn
        self.records_applied += 1
        self.metrics.inc("ha.records_applied")

    def _feed_heartbeat(self, frame: dict) -> None:
        last_lsn = _integer(frame.get("last_lsn", 0), "heartbeat last_lsn")
        sent_at = frame.get("sent_at")
        if sent_at is not None and (
            isinstance(sent_at, bool)
            or not isinstance(sent_at, (int, float))
            or not math.isfinite(sent_at)
        ):
            raise DurabilityError(
                f"heartbeat sent_at must be a finite number, got {sent_at!r:.40}"
            )
        self.primary_lsn = max(self.primary_lsn, last_lsn)
        lag_records = max(0, self.primary_lsn - self.applied_lsn)
        self.metrics.gauge("ha.replication_lag_records").set(lag_records)
        if sent_at is not None:
            self.metrics.histogram(
                "ha.heartbeat_delay_s", REPLICATION_LAG_BUCKETS
            ).observe(max(0.0, self.clock() - sent_at))

    # ------------------------------------------------------------------
    def catch_up_from(self, directory: str | Path, epoch: int | None = None) -> int:
        """One-shot tail sync straight from a durability directory — the
        takeover step that drains whatever the dead primary's disk still
        holds (shared-disk deployments) before promotion.  Mutilated tails
        simply end the readable prefix, exactly as recovery would see them.
        Returns the number of records applied."""
        from repro.ha.ship import InProcessSink, WalShipper

        if epoch is not None:
            self.observe_epoch(epoch)
        token = self.accepted_epoch
        shipper = WalShipper(
            directory, InProcessSink(self), epoch_fn=lambda: token
        )
        return shipper.pump()

    def promote(self, epoch: int, durability=None) -> list[str]:
        """Take over as primary at lease ``epoch``.

        First the promote-time oracle check: when the newest applied record
        carried a digest, the shadow fabric must hash to it exactly —
        a divergence here means the replica is *not* the primary's state
        and must not serve.  Then the fabric flips to the primary role
        (attaching ``durability``, typically a fresh
        :class:`~repro.durability.checkpoint.FabricDurability` whose
        ``start_lsn`` continues this replica's applied LSN).  Returns the
        fabric's invariant problems (empty = clean takeover)."""
        if self.fabric is None:
            raise DurabilityError("cannot promote: no manifest received yet")
        if (
            self.last_digest is not None
            and self.last_digest_lsn == self.applied_lsn
        ):
            digest = self.fabric.digest()
            if digest != self.last_digest:
                raise DurabilityError(
                    f"standby diverged: fabric digest {digest} != primary's "
                    f"{self.last_digest} at lsn {self.applied_lsn}"
                )
        self.observe_epoch(epoch)
        problems = self.fabric.promote(epoch, durability=durability)
        if self.problems:
            problems = list(self.problems) + list(problems)
        self.metrics.inc("ha.promotions")
        return problems

    # ------------------------------------------------------------------
    def status(self) -> dict:
        """JSON-native state summary (the CLI's and front end's shape)."""
        return {
            "role": self.fabric.role if self.fabric is not None else "standby",
            "accepted_epoch": self.accepted_epoch,
            "applied_lsn": self.applied_lsn,
            "primary_lsn": self.primary_lsn,
            "lag_records": max(0, self.primary_lsn - self.applied_lsn),
            "records_applied": self.records_applied,
            "checkpoints_restored": self.checkpoints_restored,
            "frames_rejected": self.frames_rejected,
            "problems": list(self.problems),
        }
