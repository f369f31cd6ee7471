"""An in-process HA pair: primary + hot standby + lease, wired end to end.

:class:`HaCluster` is the harness the failover tests, the kill-primary
sweep, and ``BENCH_ha`` drive: one primary fabric journaling to
``<root>/primary`` behind a lease-installed fence, one
:class:`~repro.ha.standby.StandbyReplica` fed by an in-process
:class:`~repro.ha.ship.WalShipper`, and one shared
:class:`~repro.ha.lease.LeaseStore` both sides elect through.  Everything
time-dependent goes through an injectable clock/sleep pair, so tests drive
lease expiry deterministically while the benchmark measures real seconds.

The failure drill it exists for:

1. drive committed ops through :attr:`fabric` (acknowledged = the WAL
   append returned), :meth:`pump` shipping as you go;
2. :meth:`kill_primary` — abort the durability coordinator mid-flight
   (optionally under an armed fault injector) and mutilate the on-disk WAL
   tail the way a real crash would;
3. :meth:`failover` — the standby waits out the lease, takes it over at a
   bumped epoch, drains whatever the dead primary's disk still readably
   holds (:meth:`StandbyReplica.catch_up_from`), and promotes with a fresh
   durability coordinator continuing the LSN sequence.

After step 3 the promoted fabric must be digest-identical to the
committed-LSN oracle and hold **every acknowledged op** — the invariant
the sweep asserts across every crash site × disk-mutilation mode.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.durability.checkpoint import FabricDurability
from repro.durability.faults import mutilate
from repro.errors import DurabilityError
from repro.ha.lease import LeaseCoordinator, LeaseStore
from repro.ha.ship import InProcessSink, WalShipper
from repro.ha.standby import StandbyReplica


@dataclass
class FailoverReport:
    """What one takeover did: the new epoch, where the promoted fabric
    landed, and how long the outage window was."""

    epoch: int
    applied_lsn: int
    caught_up: int
    digest: str
    problems: list[str] = field(default_factory=list)
    failover_s: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.problems

    def describe(self) -> str:
        """One-line human-readable summary (the CLI's output)."""
        status = "ok" if self.ok else f"FAILED ({len(self.problems)} problems)"
        return (
            f"failover to epoch {self.epoch}: caught up {self.caught_up} "
            f"records to lsn {self.applied_lsn} in "
            f"{self.failover_s * 1e3:.1f} ms — {status}"
        )


class HaCluster:
    """One primary + one standby + one lease, all in this process."""

    def __init__(
        self,
        root: str | Path,
        make_fabric: Callable[[], object],
        ttl_s: float = 2.0,
        fsync: str = "always",
        checkpoint_every: int = 256,
        keep_checkpoints: int = 3,
        fault_hook=None,
        clock: Callable[[], float] = time.time,
        sleep: Callable[[float], None] = time.sleep,
        with_dataplane: bool | None = None,
    ) -> None:
        self.root = Path(root)
        self.primary_dir = self.root / "primary"
        self.standby_dir = self.root / "standby"
        self.make_fabric = make_fabric
        self.ttl_s = float(ttl_s)
        self.fsync = fsync
        self.checkpoint_every = checkpoint_every
        self.keep_checkpoints = keep_checkpoints
        self.fault_hook = fault_hook
        self.clock = clock
        self.sleep = sleep
        self.with_dataplane = with_dataplane
        self.lease_store = LeaseStore(self.root / "lease")
        self.primary_lease = LeaseCoordinator(
            "primary", self.lease_store, ttl_s=self.ttl_s, clock=clock
        )
        self.standby_lease = LeaseCoordinator(
            "standby", self.lease_store, ttl_s=self.ttl_s, clock=clock
        )
        self.fabric = None
        self.durability: FabricDurability | None = None
        self.standby = StandbyReplica(with_dataplane=with_dataplane, clock=clock)
        self.shipper: WalShipper | None = None
        self.primary_alive = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Elect the primary (epoch 1 on a fresh lease), attach its fenced
        durability, and connect the in-process replication stream."""
        self.fabric, self.durability, self.shipper = start_primary(
            self.primary_lease, self.make_fabric, self.primary_dir,
            InProcessSink(self.standby), clock=self.clock,
            fsync=self.fsync, checkpoint_every=self.checkpoint_every,
            keep_checkpoints=self.keep_checkpoints, fault_hook=self.fault_hook,
        )
        self.primary_alive = True

    def pump(self) -> int:
        """One replication beat: renew the primary's lease and ship
        everything new.  Returns the number of records shipped."""
        if not self.primary_alive or self.shipper is None:
            raise DurabilityError("cluster not started or primary dead")
        self.primary_lease.renew()
        return self.shipper.pump()

    # ------------------------------------------------------------------
    def kill_primary(self, mode: str = "keep") -> dict:
        """Simulated primary death: abort the durability coordinator (no
        clean-shutdown sync) and apply one
        :data:`~repro.durability.faults.DISK_MODES` mutilation to the
        fabric WAL — reproducing the on-disk state a real crash leaves.
        The lease is *not* released: the standby must wait it out (or win
        it once expired), exactly like a real silent death."""
        if self.durability is None:
            raise DurabilityError("cluster not started")
        wal_path = self.durability.wal.path
        durable_offset = self.durability.wal.durable_offset
        committed_lsn = self.durability.wal.last_lsn
        self.durability.abort()
        mutilate(wal_path, mode, durable_offset)
        self.primary_alive = False
        return {
            "mode": mode,
            "durable_offset": durable_offset,
            "committed_lsn": committed_lsn,
        }

    def failover(
        self, max_wait_s: float = 30.0, poll_s: float = 0.02
    ) -> FailoverReport:
        """The standby's takeover: win the lease (waiting out the dead
        primary's TTL), raise its epoch bar, drain the primary's surviving
        WAL tail, and promote with a fresh fenced durability coordinator
        continuing the LSN sequence."""
        self.durability, report = take_over(
            self.standby_lease, self.standby, self.primary_dir, self.standby_dir,
            max_wait_s=max_wait_s, poll_s=poll_s, clock=self.clock, sleep=self.sleep,
            fsync=self.fsync, checkpoint_every=self.checkpoint_every,
            keep_checkpoints=self.keep_checkpoints,
        )
        self.fabric = self.standby.fabric
        # The promoted standby is the live node now; close() treats its
        # durability as cleanly closeable.
        self.primary_alive = True
        self.shipper = None
        return report

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Clean shutdown of whatever is still holding file handles."""
        if self.durability is not None and self.primary_alive:
            try:
                self.durability.close()
            except DurabilityError:  # pragma: no cover — fenced close
                self.durability.abort()
        elif self.durability is not None:
            self.durability.abort()


def start_primary(
    lease: LeaseCoordinator,
    make_fabric: Callable[[], object],
    directory: str | Path,
    sink=None,
    clock: Callable[[], float] = time.time,
    **durability_kwargs,
):
    """Elect a primary: acquire ``lease``, build the fabric, attach its
    durability journaling to ``directory`` behind the lease's epoch and
    fence, and — given a replication ``sink`` — a :class:`WalShipper`
    streaming that journal into it.  Returns ``(fabric, durability,
    shipper)`` (``shipper`` is ``None`` without a sink).  ``HaCluster``
    and ``sfp ha primary`` both start through here."""
    if lease.try_acquire() is None:
        raise DurabilityError("primary could not acquire the initial lease")
    fabric = make_fabric()
    durability = FabricDurability(directory, **durability_kwargs).attach(fabric)
    epoch = lease.epoch
    assert epoch is not None
    durability.set_epoch(epoch)
    durability.set_fence(lease.check_fence)
    fabric.epoch = epoch
    shipper = None
    if sink is not None:
        shipper = WalShipper(
            directory, sink, epoch_fn=lambda: lease.epoch or 0, clock=clock
        )
    return fabric, durability, shipper


def take_over(
    lease: LeaseCoordinator,
    standby: StandbyReplica,
    primary_dir: str | Path,
    standby_dir: str | Path,
    max_wait_s: float = 30.0,
    poll_s: float = 0.02,
    clock: Callable[[], float] = time.time,
    sleep: Callable[[float], None] = time.sleep,
    **durability_kwargs,
) -> tuple[FabricDurability, FailoverReport]:
    """A standby's takeover: win ``lease`` (waiting out the dead primary's
    TTL), raise the standby's epoch bar, drain the primary's surviving WAL
    tail from ``primary_dir``, and promote with a fresh fenced durability
    coordinator in ``standby_dir`` continuing the LSN sequence.  Returns
    that coordinator and the report.  ``HaCluster.failover`` and
    ``sfp ha standby --promote`` both take over through here."""
    t0 = clock()
    deadline = t0 + max_wait_s
    epoch = lease.try_acquire()
    while epoch is None:
        if clock() >= deadline:
            raise DurabilityError(
                f"standby could not win the lease within {max_wait_s}s"
            )
        sleep(poll_s)
        epoch = lease.try_acquire()
    # Fence first: from here on, no frame or append stamped with the
    # old epoch can be accepted anywhere.
    standby.observe_epoch(epoch)
    caught_up = standby.catch_up_from(primary_dir, epoch=epoch)
    durability = FabricDurability(
        standby_dir, start_lsn=standby.applied_lsn, **durability_kwargs
    )
    problems = standby.promote(epoch, durability=durability)
    durability.set_fence(lease.check_fence)
    return durability, FailoverReport(
        epoch=epoch,
        applied_lsn=standby.applied_lsn,
        caught_up=caught_up,
        digest=standby.fabric.digest(),
        problems=list(problems),
        failover_s=clock() - t0,
    )
