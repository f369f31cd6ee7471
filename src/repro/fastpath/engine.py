"""The fast-path engine: verdict and block caches, routing, invalidation.

Attach with :meth:`FastPathEngine.attach`: the engine hangs itself on
``pipeline.fastpath`` and ``SwitchPipeline.process_batch`` starts routing
batches here.  Per batch the engine:

1. reserves the telemetry collector's sampling counter for the whole batch
   in one lock grab (:meth:`PostcardCollector.reserve`), reproducing the
   exact 1-in-N decision sequence per-packet ``should_sample`` would make;
2. routes to the **interpreter** (``process_batch_interpreted`` semantics,
   original batch order) every packet that is traced,
   sampled, mid-recirculation (``pass_id != 1``), pre-dropped, or belongs
   to a tenant whose chain is uncompilable — postcards therefore come out
   of the oracle itself and stay bit-exact by construction;
3. hands *all* the rest, whatever their tenants, to **one**
   :meth:`~repro.fastpath.kernels.NumpyKernel.run` over the per-table
   :class:`~repro.fastpath.kernels.TableStack`\\ s.

Two caches, one invalidation rule.  ``_plans`` holds each tenant's verdict
(:class:`~repro.fastpath.compiler.CompiledChain`, positive or negative);
``_blocks`` holds, per table, the rule blocks those verdicts published,
keyed by the tenant ID the lanes will carry.  A verdict is current iff the
generations of the table partitions it read are unchanged.  Every partition
mutation also bumps its table's ``generation``, so per batch the engine
compares those (and ``max_passes``) with what they were when it last
checked every cached verdict — O(tables) — and only when one moved does it
check each verdict and drop the stale ones (so writes that bypass
``RuntimeAPI`` — the SFC virtualizer writes tables directly — can never run
stale blocks).  A stale tenant is recompiled from its own partitions and
republishes its blocks.  A write to tenant A therefore costs A one
recompile and nobody else anything, negative verdicts included, and so
does a rolled-back batch that touched A (``MatchActionTable.undo``
restamps only the partitions the batch wrote).  ``RuntimeAPI``
additionally reports the partitions each committed batch wrote
(:meth:`FastPathEngine.notify_write`) so the blocks and verdicts of the
tenants it names are dropped eagerly: wire IDs are never reused, so this is
what keeps dead blocks from accumulating.

Publishing is in place: what changed in a table's blocks since its stack
was published is applied at the next batch with
:meth:`TableStack.publish <repro.fastpath.kernels.TableStack.publish>` —
the rows of the blocks that changed appended, the keys of the tenants that
went dropped, a new snapshot returned — so a write costs the rows it
changes, not a rebuild from every resident tenant's blocks.
"""

from __future__ import annotations

import threading

from repro.dataplane.packet import Packet, PacketResult
from repro.dataplane.pipeline import SwitchPipeline
from repro.fastpath.compiler import CompiledChain, compile_chain
from repro.fastpath.kernels import NumpyKernel, TableStack


class FastPathEngine:
    """Compiled-block cache + batch router for one pipeline."""

    def __init__(self, pipeline: SwitchPipeline) -> None:
        self.kernel = NumpyKernel()
        self.pipeline = pipeline
        #: tenant id -> its verdict (negative ones carry ``fallback_reason``
        #: so uncompilable tenants aren't re-analyzed per batch).
        self._plans: dict[int, CompiledChain] = {}
        #: The pipeline's tables in walk order, as of ``_structure_gen``.
        self._tables: list = []
        self._structure_gen = -1
        #: Per table: tenant id -> ``{pass: Block}``; the stack published
        #: from it (``None`` = build from scratch before the next run); and
        #: what changed since that stack was published (tenant id -> its
        #: blocks, ``{}`` = gone), applied in place at the next batch.
        self._blocks: list[dict] = []
        self._stacks: list[TableStack | None] = []
        self._pending: list[dict] = []
        #: ``(max_passes, every table's generation)`` when every cached
        #: verdict was last checked: while the pipeline shows the same,
        #: they are all still current (``None`` = check them).
        self._checked: tuple | None = None
        # Cache mutations (compile, notify, drop) happen under one lock so
        # shard worker threads can share the engine with concurrent writers.
        self._lock = threading.RLock()
        self.stats = {
            "batches": 0,
            "compiles": 0,
            "cache_hits": 0,
            "invalidations": 0,
            "compiled_packets": 0,
            "interpreted_packets": 0,
            "fallback_packets": 0,
        }

    # -- lifecycle ---------------------------------------------------------
    @classmethod
    def attach(cls, pipeline: SwitchPipeline) -> "FastPathEngine":
        """Create an engine and hook it into ``pipeline.fastpath``."""
        engine = cls(pipeline)
        pipeline.fastpath = engine
        return engine

    def detach(self) -> None:
        """Unhook from the pipeline (batches go back to the interpreter)."""
        if self.pipeline.fastpath is self:
            self.pipeline.fastpath = None

    # -- caches ------------------------------------------------------------
    def plan_for(self, tenant_id: int) -> CompiledChain:
        """The current (validated) verdict for ``tenant_id``, compiling on
        miss or staleness and publishing the blocks it compiled."""
        with self._lock:
            self._revalidate()
            return self._plan(tenant_id)

    def _revalidate(self) -> None:
        """Make every cached verdict current, in O(tables) while nothing
        moved: a partition mutation of any kind — RuntimeAPI, a direct
        virtualizer write, an undo — bumps its table's ``generation``, so
        while no table's has moved (nor the structure, nor ``max_passes``)
        since the last full check, every verdict that passed it still holds.
        Otherwise each verdict is checked and the stale ones are dropped."""
        pipeline = self.pipeline
        if self._structure_gen != pipeline.structure_generation:
            # Tables came or went: block keys are table positions.
            self.invalidate_all()
        clock = (pipeline.max_passes, *[t.generation for t in self._tables])
        if clock == self._checked:
            return
        stale = [t for t, plan in self._plans.items() if not plan.is_current(pipeline)]
        for tenant_id in stale:
            del self._plans[tenant_id]
        self.stats["invalidations"] += len(stale)
        self._checked = clock

    def _plan(self, tenant_id: int) -> CompiledChain:
        """``tenant_id``'s cached verdict (current: :meth:`_revalidate` ran),
        or a fresh one, whose blocks are filed for the next publish."""
        plan = self._plans.get(tenant_id)
        if plan is not None:
            self.stats["cache_hits"] += 1
            return plan
        plan = compile_chain(self.pipeline, tenant_id)
        self.stats["compiles"] += 1
        self._plans[tenant_id] = plan
        if plan.structure_gen != self._structure_gen:
            return plan  # tables moved mid-compile: stale, nothing to file
        for (ti, tid), by_pass in plan.blocks.items():
            if by_pass:
                self._blocks[ti][tid] = self._pending[ti][tid] = by_pass
            else:
                self._drop_blocks(ti, tid)
        return plan

    def _drop_blocks(self, ti: int, tenant_id: int) -> None:
        if self._blocks[ti].pop(tenant_id, None) is not None:
            self._pending[ti][tenant_id] = {}

    def invalidate_all(self) -> None:
        """Drop every cached verdict and block (recompile on next use)."""
        with self._lock:
            self.stats["invalidations"] += len(self._plans)
            self._plans.clear()
            self._structure_gen = self.pipeline.structure_generation
            self._tables = [t for s in self.pipeline.stages for t in s.tables]
            self._blocks = [{} for _ in self._tables]
            self._stacks = [None] * len(self._tables)
            self._pending = [{} for _ in self._tables]
            self._checked = None

    def _publish(self) -> tuple:
        """The stacks for a run: each table's published with what changed
        since (or built from scratch)."""
        for ti, stack in enumerate(self._stacks):
            pending = self._pending[ti]
            if stack is None:
                stack = TableStack(self._tables[ti], self._blocks[ti], self.pipeline.actions)
            elif pending:
                stack = stack.publish(pending)
            else:
                continue
            self._stacks[ti] = stack
            self._pending[ti] = {}
        return tuple(self._stacks)

    @property
    def cached_plans(self) -> int:
        return len(self._plans)

    @property
    def cached_blocks(self) -> int:
        return sum(len(by_pass) for per in self._blocks for by_pass in per.values())

    # -- write notifications ----------------------------------------------
    def notify_write(self, table, keys) -> None:
        """A committed RuntimeAPI batch wrote the partitions ``keys`` of
        ``table`` (tenant IDs; ``None`` = shared): drop what is cached
        under those tenant IDs.  O(partitions written); correctness never
        depends on it (``plan_for`` revalidates), only memory does."""
        if not self._plans and not any(self._blocks):
            return  # nothing cached (a control-plane-only shard: no traffic)
        with self._lock:
            if None in keys:
                # A shared-partition rule is part of every tenant's blocks.
                self.invalidate_all()
                return
            tis = [ti for ti, t in enumerate(self._tables) if t is table]
            for key in keys:
                if self._plans.pop(key, None) is not None:
                    self.stats["invalidations"] += 1
                for ti in tis:
                    self._drop_blocks(ti, key)

    # -- execution ---------------------------------------------------------
    def process_batch(self, packets: list[Packet], trace: bool = False) -> list[PacketResult]:
        """Execute one batch, compiled where possible, bit-exact always."""
        pipeline = self.pipeline
        self.stats["batches"] += 1
        n = len(packets)
        if n == 0:
            return []
        collector = pipeline.telemetry
        if collector is not None:
            base = collector.reserve(n)
            every = collector.sample_every
            sampled = [
                every > 0 and (base + i + 1) % every == 0 for i in range(n)
            ]
        else:
            sampled = None
        results: list[PacketResult | None] = [None] * n
        interp: list[int] = []
        fast: list[int] = []
        for i, p in enumerate(packets):
            if (
                trace
                or (sampled is not None and sampled[i])
                or p.pass_id != 1
                or p.dropped
            ):
                interp.append(i)
            else:
                fast.append(i)
        if fast:
            with self._lock:
                self._revalidate()
                fallback = {
                    tenant_id
                    for tenant_id in {packets[i].tenant_id for i in fast}
                    if self._plan(tenant_id).fallback_reason is not None
                }
                if fallback:
                    lanes = [i for i in fast if packets[i].tenant_id not in fallback]
                    self.stats["fallback_packets"] += len(fast) - len(lanes)
                    interp.extend(i for i in fast if packets[i].tenant_id in fallback)
                    fast = lanes
                stacks = self._publish()
        if fast:
            group = [packets[i] for i in fast]
            passes = self.kernel.run(stacks, group, pipeline)
            self.stats["compiled_packets"] += len(fast)
            latency_ns = {p: pipeline.latency_model.latency_ns(passes=p) for p in set(passes)}
            for i, packet, p in zip(fast, group, passes):
                results[i] = PacketResult(packet, p, [], latency_ns[p])
        if interp:
            interp.sort()
            self.stats["interpreted_packets"] += len(interp)
            for i in interp:
                results[i] = pipeline.process(
                    packets[i],
                    trace=trace,
                    _sampled=False if sampled is None else sampled[i],
                )
        return results  # type: ignore[return-value]

    def __repr__(self) -> str:
        return (
            f"FastPathEngine(pipeline={self.pipeline.name!r}, "
            f"plans={len(self._plans)})"
        )
