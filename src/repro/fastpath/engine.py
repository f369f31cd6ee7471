"""The fast-path engine: per-tenant plan cache, routing, invalidation.

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
3. groups the rest by tenant and executes each group's
   :class:`~repro.fastpath.compiler.CompiledChain` on the kernel.

Invalidation is two-layered:

* **Lazy (always correct):** every cache lookup revalidates the plan's
  recorded table generations + pipeline structure generation — a handful
  of int compares — so mutations that bypass the notify hook (the SFC
  virtualizer writes tables directly) can never execute a stale plan.
* **Precise (keeps churn cheap):** ``RuntimeAPI`` reports each committed
  batch write with the touched table, the written entries and the pre/post
  generations.  A plan is dropped only when a written entry's
  ``tenant_id`` spec matches one of the plan's baked-in constants (raw or
  wire ID) or wildcards; otherwise the plan's recorded generation is
  advanced *only if* it equals the pre-write generation — a plan that
  already missed some other mutation stays stale and falls to the lazy
  layer instead of being wrongly refreshed.  Rolled-back batches are net
  no-ops, so they refresh without ever invalidating.  Make-before-break
  therefore behaves exactly right: phase-1 inserts under a fresh wire ID
  refresh everyone cheaply, and only the map flip naming the tenant drops
  that one tenant's plan.
"""

from __future__ import annotations

import threading

from repro.dataplane.lookup_index import _match_one
from repro.dataplane.packet import Packet, PacketResult
from repro.dataplane.pipeline import SwitchPipeline
from repro.fastpath.compiler import CompiledChain, compile_chain
from repro.fastpath.kernels import NumpyKernel


class FastPathEngine:
    """Compiled-plan cache + batch router for one pipeline."""

    def __init__(self, pipeline: SwitchPipeline) -> None:
        self.kernel = NumpyKernel()
        self.pipeline = pipeline
        #: tenant id -> CompiledChain (negative entries carry
        #: ``fallback_reason`` so uncompilable tenants aren't re-analyzed
        #: per batch).
        self._plans: dict[int, CompiledChain] = {}
        # Cache mutations (compile, notify, drop) happen under one lock so
        # shard worker threads can share the engine with concurrent writers.
        self._lock = threading.RLock()
        self.stats = {
            "batches": 0,
            "compiles": 0,
            "cache_hits": 0,
            "invalidations": 0,
            "refreshes": 0,
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

    # -- plan cache --------------------------------------------------------
    def plan_for(self, tenant_id: int) -> CompiledChain:
        """The current (validated) plan for ``tenant_id``, compiling on
        miss or staleness."""
        with self._lock:
            plan = self._plans.get(tenant_id)
            if plan is not None:
                if plan.is_current(self.pipeline):
                    self.stats["cache_hits"] += 1
                    return plan
                # Lazy layer caught a mutation the notify hook never saw.
                self.stats["invalidations"] += 1
            plan = compile_chain(self.pipeline, tenant_id)
            self.stats["compiles"] += 1
            self._plans[tenant_id] = plan
            return plan

    def invalidate_all(self) -> None:
        """Drop every cached plan (recompile on next use)."""
        with self._lock:
            self.stats["invalidations"] += len(self._plans)
            self._plans.clear()

    def invalidate_tenant(self, tenant_id: int) -> None:
        """Drop one tenant's cached plan if present."""
        with self._lock:
            if self._plans.pop(tenant_id, None) is not None:
                self.stats["invalidations"] += 1

    @property
    def cached_plans(self) -> int:
        return len(self._plans)

    # -- write notifications ----------------------------------------------
    def notify_write(self, table, entries, pre_gen: int, post_gen: int) -> None:
        """A committed RuntimeAPI batch touched ``table``, writing
        ``entries`` (inserted, deleted, or replacement forms), moving its
        generation ``pre_gen`` -> ``post_gen``."""
        tenant_kind = None
        tenant_in_key = False
        for f in table.key:
            if f.name == "tenant_id":
                tenant_kind = f.kind
                tenant_in_key = True
                break
        with self._lock:
            for tenant_id in list(self._plans):
                plan = self._plans[tenant_id]
                slot = plan.table_gens.get(id(table))
                if slot is None:
                    # Table outside the plan's walk (installed after the
                    # compile): the structure generation already handles it.
                    continue
                if self._affects(plan, entries, tenant_in_key, tenant_kind):
                    del self._plans[tenant_id]
                    self.stats["invalidations"] += 1
                elif slot[1] == pre_gen:
                    slot[1] = post_gen
                    self.stats["refreshes"] += 1

    def notify_reverted(self, table, pre_gen: int, post_gen: int) -> None:
        """A RuntimeAPI batch touching ``table`` rolled back: the content
        equals the pre-batch snapshot, so plans that were current before
        the batch are still current — advance their recorded generation
        without invalidating anything."""
        with self._lock:
            for plan in self._plans.values():
                slot = plan.table_gens.get(id(table))
                if slot is not None and slot[1] == pre_gen:
                    slot[1] = post_gen
                    self.stats["refreshes"] += 1

    @staticmethod
    def _affects(plan: CompiledChain, entries, tenant_in_key: bool, tenant_kind) -> bool:
        """Could writing ``entries`` change ``plan``'s walk?"""
        if plan.fallback_reason is not None:
            # Negative entries invalidate conservatively: churn may have
            # removed whatever made the chain uncompilable.
            return True
        if not tenant_in_key:
            # No tenant_id in the key: any entry can match any tenant.
            return True
        for entry in entries:
            spec = entry.match.get("tenant_id")
            if spec is None:
                return True  # wildcard tenant: matches every group
            if any(_match_one(tenant_kind, spec, c) for c in plan.consts):
                return True
        return False

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
        groups: dict[int, list[int]] = {}
        for i, p in enumerate(packets):
            if (
                trace
                or (sampled is not None and sampled[i])
                or p.pass_id != 1
                or p.dropped
            ):
                interp.append(i)
            else:
                groups.setdefault(p.tenant_id, []).append(i)
        latency_model = pipeline.latency_model
        for tenant_id, idxs in groups.items():
            plan = self.plan_for(tenant_id)
            if plan.fallback_reason is not None:
                self.stats["fallback_packets"] += len(idxs)
                interp.extend(idxs)
                continue
            group = [packets[i] for i in idxs]
            passes = self.kernel.run(plan, group, pipeline)
            self.stats["compiled_packets"] += len(idxs)
            latency_by_passes: dict[int, float] = {}
            for j, i in enumerate(idxs):
                p = passes[j]
                latency = latency_by_passes.get(p)
                if latency is None:
                    latency = latency_model.latency_ns(passes=p)
                    latency_by_passes[p] = latency
                result = PacketResult(packet=group[j], passes=p)
                result.latency_ns = latency
                results[i] = result
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
