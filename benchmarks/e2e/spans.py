"""In-memory span recorder installed from outside ``src/``.

The traced run of the benchmark wraps the public functions of each layer
with :meth:`Recorder.wrap`; nothing under ``src/`` knows about it.  A span
is ``(id, parent, rid, name, start, end, n)``: ``rid`` is the request id
(an op index, a batch index or the client's request header) shared by all
spans of one request, and ``n`` is a count taken at the same boundary (ops
in a write, lanes in a kernel run, bytes appended, queue depth), so ratios
are measured where the work happens.  The *layer* of a span is its name without the last dotted
part, which is the module name under ``repro``.

A span's self time is its duration minus the part of it its children
cover; children are clipped to the parent and their union is taken, so a
child that ran on another thread (the shard worker under the HTTP
handler's wait) is not counted twice.
"""

from __future__ import annotations

import itertools
import os
import threading
from collections import defaultdict
from time import perf_counter
from typing import Callable, Iterable, NamedTuple


class Span(NamedTuple):
    id: int
    parent: int
    rid: object
    name: str
    start: float
    end: float
    n: int = 1


def layer_of(name: str) -> str:
    """``fabric.orchestrator.admit`` -> ``fabric.orchestrator``."""
    return name.rpartition(".")[0]


class Recorder:
    """Collects spans from every thread of one process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    # -- the per-thread span stack ----------------------------------------
    def _stack(self) -> list[tuple[int, object]]:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def new_id(self) -> int:
        return next(self._ids)

    def open(self, name: str, rid=None, parent: int | None = None, sid: int | None = None):
        """Open a span by hand; returns the token :meth:`close` takes.
        ``parent``/``sid`` let a caller link spans across threads."""
        stack = self._stack()
        top_id, top_rid = stack[-1] if stack else (0, None)
        if sid is None:
            sid = next(self._ids)
        if rid is None:
            rid = top_rid
        stack.append((sid, rid))
        return (sid, top_id if parent is None else parent, rid, name, perf_counter())

    def close(self, token, n: int = 1) -> None:
        end = perf_counter()
        self._stack().pop()
        self.spans.append(Span(*token, end, n))

    def add(self, name: str, start: float, end: float, parent: int, rid=None, n: int = 1) -> None:
        """Record an interval measured elsewhere (a queue wait)."""
        self.spans.append(Span(next(self._ids), parent, rid, name, start, end, n))

    # -- wrapping ------------------------------------------------------------
    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        count: Callable[[tuple, object], int] | None = None,
    ) -> None:
        """Replace ``owner.attr`` (a class's method or a module's function)
        with a version that records one span per call.  ``count(args,
        result)`` gives the span's work count."""
        fn = getattr(owner, attr)
        spans, ids, stack_of = self.spans, self._ids, self._stack

        def traced(*args, **kwargs):
            stack = stack_of()
            parent, rid = stack[-1] if stack else (0, None)
            sid = next(ids)
            stack.append((sid, rid))
            start = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                n = 1 if count is None or result is None else count(args, result)
                spans.append(Span(sid, parent, rid, name, start, end, n))

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        self._undo.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def replace(self, owner, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Install a hand-written wrapper (``make(original)``), undone by
        :meth:`uninstall` like the generic ones."""
        fn = getattr(owner, attr)
        self._undo.append((owner, attr, fn))
        setattr(owner, attr, make(fn))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()


# ----------------------------------------------------------------------
# Arithmetic over recorded spans
# ----------------------------------------------------------------------
def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Span id -> self time: duration minus the union of its children's
    intervals, each clipped to the span."""
    spans = list(spans)
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent:
            children[span.parent].append(span)
    out: dict[int, float] = {}
    for span in spans:
        covered = 0.0
        kids = children.get(span.id)
        if kids:
            frontier = span.start
            for kid in sorted(kids, key=lambda k: k.start):
                lo = max(kid.start, frontier)
                hi = min(kid.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    frontier = hi
        out[span.id] = (span.end - span.start) - covered
    return out


class NameStats(NamedTuple):
    calls: int
    total_s: float
    self_s: float
    n: int


def by_name(spans: Iterable[Span], selfs: dict[int, float]) -> dict[str, NameStats]:
    """Span name -> call count, summed duration, summed self time, summed
    work count."""
    acc: dict[str, list] = {}
    for span in spans:
        row = acc.get(span.name)
        if row is None:
            row = acc[span.name] = [0, 0.0, 0.0, 0]
        row[0] += 1
        row[1] += span.end - span.start
        row[2] += selfs[span.id]
        row[3] += span.n
    return {name: NameStats(*row) for name, row in acc.items()}


def dump(spans: Iterable[Span], path: str) -> None:
    """Write spans as one tab-separated line each (id, parent, rid, name,
    start, end, n)."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(f"{s.id}\t{s.parent}\t{s.rid}\t{s.name}\t{s.start:.9f}\t{s.end:.9f}\t{s.n}\n")


def load(path: str) -> list[Span]:
    """Inverse of :func:`dump` (``rid`` comes back as a string)."""
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            sid, parent, rid, name, start, end, n = line.rstrip("\n").split("\t")
            out.append(Span(int(sid), int(parent), rid, name, float(start), float(end), int(n)))
    return out


# ----------------------------------------------------------------------
# Where the wrappers go (imports are local: importing this module must not
# import the program)
# ----------------------------------------------------------------------
def install_packet_path(rec: Recorder) -> None:
    """Layers a packet crosses after parsing: engine dispatch (and the
    write notifications that invalidate its plans), compiler, kernel,
    interpreter fallback."""
    import repro.fastpath.engine as engine_mod
    from repro.dataplane.pipeline import SwitchPipeline
    from repro.fastpath.engine import FastPathEngine
    from repro.fastpath.kernels import NumpyKernel

    rec.wrap(FastPathEngine, "process_batch", "fastpath.engine.process_batch",
             count=lambda args, result: len(result))
    rec.wrap(FastPathEngine, "notify_write", "fastpath.engine.notify_write")
    rec.wrap(engine_mod, "compile_chain", "fastpath.compiler.compile_chain")
    rec.wrap(NumpyKernel, "run", "fastpath.kernels.run",
             count=lambda args, result: len(result))
    rec.wrap(SwitchPipeline, "process", "dataplane.pipeline.process")


def install_controller_path(rec: Recorder) -> None:
    """One switch's control plane: admission screen, placement walk (the
    controller's own self time), two-phase install, RuntimeAPI writes."""
    import repro.controller.controller as controller_mod
    from repro.controller.controller import SfcController
    from repro.controller.install import TransactionalInstaller
    from repro.dataplane.runtime_api import RuntimeAPI

    for op in ("admit", "evict", "modify", "can_host"):
        rec.wrap(SfcController, op, f"controller.controller.{op}")
    rec.wrap(controller_mod, "check_admission", "controller.admission.check")
    for op in ("install", "evict", "replace"):
        rec.wrap(TransactionalInstaller, op, f"controller.install.{op}")

    def make_write(fn):
        def write(self, ops):
            token = rec.open("dataplane.runtime_api.write")
            result = None
            try:
                result = fn(self, ops)
                return result
            finally:
                if result is not None and not result.ok:
                    now = perf_counter()
                    rec.add("dataplane.runtime_api.rollback", now, now, token[0], token[2])
                rec.close(token, n=len(ops))
        return write

    rec.replace(RuntimeAPI, "write", make_write)


def install_durability(rec: Recorder) -> None:
    """WAL append and sync, checkpoints, recovery replay, and every
    fdatasync call (group commit shows as fewer of them per op)."""
    import repro.durability.recover as recover_mod
    from repro.durability.checkpoint import ControllerDurability, FabricDurability
    from repro.durability.wal import WriteAheadLog

    def make_append(fn):
        def append(self, op, data):
            before = self._offset
            token = rec.open("durability.wal.append")
            try:
                return fn(self, op, data)
            finally:
                # The span's work count is the bytes this record added.
                rec.close(token, n=max(0, self._offset - before))
        return append

    rec.replace(WriteAheadLog, "append", make_append)
    rec.wrap(WriteAheadLog, "_ensure_durable", "durability.wal.sync")
    rec.wrap(FabricDurability, "checkpoint", "durability.checkpoint.checkpoint")
    rec.wrap(ControllerDurability, "checkpoint", "durability.checkpoint.checkpoint")
    rec.wrap(recover_mod, "apply_fabric_record", "durability.recover.apply")
    rec.wrap(recover_mod, "apply_controller_record", "durability.recover.apply")
    rec.wrap(os, "fdatasync", "durability.wal.fdatasync")


def install_fabric(rec: Recorder) -> None:
    """The fabric orchestrator's lifecycle ops (serial and ``*_local``),
    the partitioner walk and the stitch planner."""
    import repro.fabric.orchestrator as orchestrator_mod
    from repro.fabric.orchestrator import FabricOrchestrator
    from repro.fabric.partitioner import PARTITIONERS

    for op in ("admit", "evict", "modify", "admit_local", "evict_local", "modify_local"):
        rec.wrap(FabricOrchestrator, op, f"fabric.orchestrator.{op}")
    for cls in PARTITIONERS.values():
        rec.wrap(cls, "order", "fabric.partitioner.order")
    rec.wrap(orchestrator_mod, "plan_stitch", "fabric.stitching.plan_stitch")


def install_frontend(rec: Recorder) -> None:
    """HTTP handler, intent queue and shard workers.  The handler thread
    waits in ``IntentTicket.result`` while a worker thread executes, so
    the worker's span is made a child of that wait: the wait's self time
    is then queueing and wake-up only."""
    from repro.frontend.queue import IntentQueue, IntentTicket
    from repro.frontend.server import _Handler
    from repro.frontend.workers import ShardWorker, ShardWorkerPool

    def make_run_intent(fn):
        def _run_intent(self, intent):
            token = rec.open("frontend.server.run_intent", rid=self.headers.get("X-Bench-Rid"))
            try:
                return fn(self, intent)
            finally:
                rec.close(token)
        return _run_intent

    def make_queue_submit(fn):
        def submit(self, intent):
            token = rec.open("frontend.queue.submit")
            try:
                return fn(self, intent)
            finally:
                # The id of the wait span that will follow, the request id,
                # and the enqueue instant ride on the intent to the worker.
                intent._bench = (rec.new_id(), token[2], perf_counter())
                # The span's work count is the queue depth it left behind.
                rec.close(token, n=self._size)
        return submit

    def make_result(fn):
        def result(self, timeout=None):
            link = getattr(self.intent, "_bench", None)
            token = rec.open("frontend.queue.await", sid=link[0] if link else None)
            try:
                return fn(self, timeout)
            finally:
                rec.close(token)
        return result

    def make_take(fn):
        def take(self, switch, route, timeout=0.1):
            ticket = fn(self, switch, route, timeout)
            if ticket is not None:
                link = getattr(ticket.intent, "_bench", None)
                if link is not None:
                    rec.add("frontend.queue.wait", link[2], perf_counter(), link[0], link[1])
            return ticket
        return take

    def make_execute(fn):
        def execute(self, intent):
            link = getattr(intent, "_bench", None)
            token = rec.open(
                "frontend.workers.execute",
                rid=link[1] if link else None,
                parent=link[0] if link else None,
            )
            try:
                return fn(self, intent)
            finally:
                rec.close(token)
        return execute

    rec.replace(_Handler, "_run_intent", make_run_intent)
    rec.wrap(ShardWorkerPool, "submit", "frontend.workers.submit")
    rec.replace(IntentQueue, "submit", make_queue_submit)
    rec.replace(IntentTicket, "result", make_result)
    rec.replace(IntentQueue, "take", make_take)
    rec.replace(ShardWorker, "execute", make_execute)


def install_ha(rec: Recorder) -> None:
    """Lease renewal, WAL shipping and the standby's replay."""
    from repro.ha.lease import LeaseCoordinator
    from repro.ha.ship import WalShipper
    from repro.ha.standby import StandbyReplica

    rec.wrap(LeaseCoordinator, "renew", "ha.lease.renew")
    rec.wrap(WalShipper, "pump", "ha.ship.pump", count=lambda args, result: result)
    rec.wrap(StandbyReplica, "feed", "ha.standby.feed")
