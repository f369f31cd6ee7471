"""Shard workers: one thread per fabric switch, single writer per shard.

:class:`ShardWorkerPool` spawns one :class:`ShardWorker` per switch.  Each
worker pulls intents routed to its shard from the shared
:class:`~repro.frontend.queue.IntentQueue` and runs them through the
orchestrator's one-shard entry points
(:meth:`~repro.fabric.orchestrator.FabricOrchestrator.admit_local` and
friends — the same lifecycle bodies as the public methods, run under that
shard's lock alone), so admissions on different shards run concurrently:
while one worker's WAL fdatasync is parked in the kernel (the GIL is
released for the syscall), the other workers keep admitting, and
concurrent committers on the shared fabric journal ride the WAL's
leader-based group commit.

The **single-writer rule**: a shard's state is only ever mutated by its
own worker under that shard's lock — or by an escalated intent (spillover,
stitching, re-home, drain) that any worker executes through the public
fabric methods, which take every shard lock in sorted-name order.  One
scope holds exactly one shard lock and the other holds them all, so the
two can never interleave on a shard, and the sorted acquisition order
makes cross-shard ops deadlock-free among themselves.

The pool changes nothing about how the fabric journals: the method that
holds the locks picks the record's digest key (DESIGN §14), whether or
not a pool is running.
"""

from __future__ import annotations

import threading

from repro.errors import FrontendError
from repro.fabric.orchestrator import FabricOrchestrator
from repro.frontend.queue import Intent, IntentQueue, IntentTicket


class ShardWorker(threading.Thread):
    """One shard's intent executor (see the module docstring)."""

    def __init__(
        self, pool: "ShardWorkerPool", switch: str, take_timeout: float
    ) -> None:
        super().__init__(name=f"sfp-worker-{switch}", daemon=True)
        self.pool = pool
        self.switch = switch
        self.take_timeout = take_timeout
        self.executed = 0
        self.escalated = 0

    # -- routing -------------------------------------------------------
    def route(self, intent: Intent) -> str | None:
        """The shard this intent belongs to: the partitioner's first
        choice for admits, the home shard for evict/modify.  ``None``
        (stitched tenants, unknown tenants, operator intents, all
        drained) means any worker may run it via the escalated path."""
        fabric = self.pool.fabric
        if intent.kind == "admit":
            assert intent.sfc is not None
            return fabric.preferred_switch(intent.sfc)
        if intent.kind in ("evict", "modify"):
            return fabric.home_switch(intent.tenant_id)
        return None

    # -- execution -----------------------------------------------------
    def execute(self, intent: Intent):
        """Run one intent (validated at submission): under one shard's lock
        when the op has a ``*_local`` entry point and a shard to aim it at,
        escalating to the public method — every shard lock — when there is
        none (operator intents, unrouted admits) or when the one-shard
        scope defers by returning ``None``."""
        fabric = self.pool.fabric
        kind = intent.kind
        local = None
        if kind == "admit":
            args = (intent.sfc,)
            if intent.routed_to is not None:
                local = (intent.sfc, intent.routed_to)
        elif kind == "evict":
            args = local = (intent.tenant_id,)
        elif kind == "modify":
            args = local = (intent.tenant_id, intent.sfc)
        elif kind in ("drain", "undrain"):
            args = (intent.switch,)
        else:
            raise FrontendError(f"unknown intent kind {intent.kind!r}")
        if local is not None:
            result = getattr(fabric, f"{kind}_local")(*local)
            if result is not None:
                return result
        self.escalated += 1
        return getattr(fabric, kind)(*args)

    def run(self) -> None:  # pragma: no cover — exercised via the pool
        queue = self.pool.queue
        metrics = self.pool.fabric.metrics
        while True:
            ticket = queue.take(self.switch, self.route, self.take_timeout)
            if ticket is None:
                if queue.finished:
                    return
                continue
            try:
                result = self.execute(ticket.intent)
            except BaseException as exc:  # noqa: BLE001 — ticket carries it
                ticket.fail(exc)
                metrics.inc("frontend.intent_errors")
            else:
                ticket.resolve(result)
                self.executed += 1
                metrics.inc("frontend.intents_executed")
                metrics.inc(f"frontend.intents_executed.{self.switch}")
            finally:
                queue.complete(ticket)


class ShardWorkerPool:
    """The worker fleet: one :class:`ShardWorker` per switch over one
    shared :class:`IntentQueue`."""

    def __init__(
        self,
        fabric: FabricOrchestrator,
        queue: IntentQueue | None = None,
        take_timeout: float = 0.05,
        fence=None,
    ) -> None:
        """``fence`` (HA): a callable raising
        :class:`~repro.errors.FencedError` when this node no longer holds
        the primary lease — checked on every :meth:`submit`, so a deposed
        primary refuses intents at the door instead of failing them one
        WAL append later."""
        self.fabric = fabric
        self.queue = queue if queue is not None else IntentQueue()
        self.take_timeout = take_timeout
        self.fence = fence
        self.workers: list[ShardWorker] = []
        self._running = False

    @property
    def num_workers(self) -> int:
        return len(self.fabric.topology.switch_names)

    def start(self) -> "ShardWorkerPool":
        """Spawn one worker per switch."""
        if self._running:
            raise FrontendError("worker pool already running")
        self.workers = [
            ShardWorker(self, name, self.take_timeout)
            for name in self.fabric.topology.switch_names
        ]
        self._running = True
        for worker in self.workers:
            worker.start()
        return self

    def submit(self, intent: Intent) -> IntentTicket:
        """Enqueue one intent (the in-process client calls this).  With a
        fence installed, a deposed primary raises
        :class:`~repro.errors.FencedError` here — before the intent is
        even queued."""
        if self.fence is not None:
            self.fence()
        return self.queue.submit(intent)

    def stop(self, timeout: float | None = 30.0) -> None:
        """Graceful shutdown: stop accepting, drain the backlog and join
        the workers.  The post-stop fabric is at a quiesce point — safe to
        digest, checkpoint, and audit.

        On timeout (backlog not drained, or a worker still running) a
        :class:`~repro.errors.FrontendError` is raised and the pool stays
        running; a later :meth:`stop` may retry the drain."""
        if not self._running:
            return
        self.queue.close()
        drained = self.queue.join(timeout)
        stuck: list[str] = []
        for worker in self.workers:
            worker.join(timeout)
            if worker.is_alive():
                stuck.append(worker.switch)
        if not drained or stuck:
            detail = f"; workers still running: {stuck}" if stuck else ""
            raise FrontendError(
                f"worker pool stop timed out with a backlog{detail}"
            )
        self._running = False

    def snapshot(self) -> dict:
        """JSON-native pool state (per-worker execution counts)."""
        return {
            "running": self._running,
            "workers": {
                w.switch: {"executed": w.executed, "escalated": w.escalated}
                for w in self.workers
            },
            "queue": self.queue.snapshot(),
        }
