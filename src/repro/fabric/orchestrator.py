"""The fabric orchestrator: N per-switch SFC controllers behind one API.

:class:`FabricOrchestrator` shards tenant SFCs across a switch cluster.
Every fabric switch runs its own full :class:`~repro.controller.controller.
SfcController` — admission, placement, transactional data-plane installs —
and the orchestrator owns only what is genuinely *cross*-switch:

* **Routing.**  The consistent-hash ring (:mod:`repro.fabric.partitioner`)
  yields a preference order over active switches; the orchestrator walks it
  with per-switch admission as the fallback, recording spillover when a
  tenant lands off its preferred shard.
* **Stitching.**  Chains no single switch can host are split at a fold
  boundary (:mod:`repro.fabric.stitching`) into two segments placed on
  adjacent switches; the inter-switch link is charged the tenant's
  bandwidth through :class:`~repro.core.state.LinkState` — the same
  commit/release discipline as each switch's backplane.
* **Drain / failover.**  ``drain(switch)`` excludes a switch and re-homes
  its tenants through the normal admit path on the survivors, reporting
  who moved and who could not be re-placed; the drained shard ends with
  zero tenant rules.

The orchestrator inherits the controller's bookkeeping discipline:
bandwidth is integer bits per second, so the incremental fabric state is
**bit-identical** to a from-scratch recomputation in any op order.  The
directory changes through one seam (:meth:`FabricOrchestrator._book`) that
moves the link loads and a running directory hash with it, so ``digest()``
costs the same however many tenants are live; :meth:`check_invariant` is
the from-scratch oracle, per shard, per link and for the directory.

**Lock scopes.**  The fabric is safe to drive from the concurrent front
end's shard workers (:mod:`repro.frontend.workers`).  Every shard has its
own lock, and each tenant op is one body (``_admit`` / ``_evict`` /
``_modify``) run by one skeleton (``_run``) under the scope its entry point
picks.  The public lifecycle methods — like drain and ``reopt_step`` —
hold *every* shard lock, acquired in sorted-name order (a total order,
hence deadlock-free).  The ``*_local`` entry points (:meth:`admit_local`,
:meth:`evict_local`, :meth:`modify_local`) hold exactly one, so workers on
different shards run concurrently, and return ``None`` — escalate to the
public method — exactly where the body would need a second shard:
spillover, stitching, re-homing, a stitched or just-moved tenant, a
drained switch.  The shared tenant directory, link loads, and gauges sit
under an inner ``_dir_lock``.  Callers must keep per-tenant program order
themselves (the intent queue's at-most-one-in-flight-per-tenant rule);
read paths (``digest``, ``summary``, ``check_invariant``) are quiesce-only
— call them with no op in flight.

**Journaling.**  Every committed op is one record in the one fabric
journal, and the method that holds the locks picks the key: all of them
vouch for the fabric-wide ``digest`` (and may trigger the coordinator's
auto-checkpoint, which also reads the whole fabric); one vouches for
``shard_digests: {switch: digest}`` of that shard alone and never
checkpoints.  The append happens before the scope's lock is released, so
journal order is execution order per shard and per tenant, and recovery
verifies whichever key a record carries at its LSN.  DESIGN §14 tabulates
op × scope.
"""

from __future__ import annotations

import hashlib
import threading
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import cached_property, partial
from typing import Callable

import numpy as np

from repro.controller.controller import OpResult, RuleFactory, SfcController
from repro.core.spec import SFC, ProblemInstance
from repro.core.state import LinkState, PipelineState
from repro.errors import PlacementError
from repro.fabric.partitioner import ConsistentHashPartitioner
from repro.fabric.stitching import StitchPlan, plan_stitch
from repro.fabric.topology import FabricTopology, LinkKey
from repro.telemetry.metrics import MetricsRegistry, Timer
from repro.telemetry.recorder import FlightRecorder
from repro.telemetry.spans import Tracer, maybe_span


@dataclass(frozen=True)
class Segment:
    """One contiguous piece of a tenant's chain on one fabric switch:
    positions ``[start, stop)`` of the logical chain, installed as
    ``sfc`` at virtual stages ``stages`` on ``switch``."""

    switch: str
    sfc: SFC
    start: int
    stop: int
    stages: tuple[int, ...]


@dataclass(frozen=True)
class FabricTenant:
    """Fabric-level directory entry: the tenant's full logical chain plus
    where its segments live and which links they cross."""

    sfc: SFC
    segments: tuple[Segment, ...]
    links: tuple[LinkKey, ...] = ()

    @property
    def stitched(self) -> bool:
        return len(self.segments) > 1

    @cached_property
    def key(self) -> int:
        """128-bit blake2b of what the fabric digest says about this tenant
        (chain, segment layout and stages, link charges), computed once.
        The directory hash is the sum of these mod 2**128 — an equality
        oracle against bugs, not a MAC against an adversary."""
        sfc = self.sfc
        layout = tuple(
            (seg.switch, seg.start, seg.stop, tuple(seg.stages))
            for seg in self.segments
        )
        blob = repr((
            sfc.name, sfc.nf_types, sfc.rules, float(sfc.bandwidth_gbps).hex(),
            sfc.tenant_id, layout, tuple(map(tuple, self.links)),
        ))
        return int.from_bytes(
            hashlib.blake2b(blob.encode("utf-8"), digest_size=16).digest(), "big"
        )

    @property
    def switches(self) -> tuple[str, ...]:
        return tuple(seg.switch for seg in self.segments)


@dataclass
class FabricOpResult:
    """Outcome of one fabric operation.  Field-compatible with the
    per-switch :class:`~repro.controller.controller.OpResult` where the
    churn replay machinery needs it (``ok``/``op``/``latency_s``/rule
    churn), plus the fabric-only routing facts."""

    ok: bool
    tenant_id: int
    op: str
    switches: tuple[str, ...] = ()
    #: True when the chain was split across two switches.
    stitched: bool = False
    #: Preference rank of the accepting switch (0 = first choice; > 0
    #: means the tenant spilled over past rejecting shards).
    spillover: int = 0
    reason: str | None = None
    detail: str = ""
    hitless: bool = True
    latency_s: float = 0.0
    rules_added: int = 0
    rules_deleted: int = 0


_DIR_HASH_MOD = 1 << 128

#: A lifecycle body as :meth:`FabricOrchestrator._run` calls it:
#: ``body(timer, scope)`` -> the result, or ``None`` to escalate.
_Body = Callable[[Timer, "str | None"], "FabricOpResult | None"]


@dataclass(frozen=True)
class DrainReport:
    """What ``drain(switch)`` did to the drained switch's tenants."""

    switch: str
    rehomed: tuple[int, ...] = ()
    evicted: tuple[int, ...] = ()

    @property
    def num_rehomed(self) -> int:
        return len(self.rehomed)

    @property
    def num_evicted(self) -> int:
        return len(self.evicted)

    def describe(self) -> str:
        """One-line human-readable summary (the CLI's output)."""
        return (
            f"drained {self.switch}: {self.num_rehomed} tenants re-homed, "
            f"{self.num_evicted} evicted"
        )


class FabricOrchestrator:
    """Tenant lifecycle (admit / evict / modify / drain) over a switch
    cluster, one :class:`SfcController` shard per fabric switch."""

    def __init__(
        self,
        topology: FabricTopology,
        num_types: int,
        partitioner: ConsistentHashPartitioner | None = None,
        with_dataplane: bool = True,
        rule_factory: RuleFactory | None = None,
        tracer: Tracer | None = None,
        recorder: FlightRecorder | None = None,
        fastpath: bool = False,
    ) -> None:
        self.topology = topology
        self.num_types = num_types
        self.partitioner = partitioner or ConsistentHashPartitioner()
        self.with_dataplane = with_dataplane
        #: Optional control-plane tracer, cascaded into every shard so one
        #: fabric admit yields one causally linked span tree
        #: (fabric -> controller -> install -> runtime.write).
        self.tracer = tracer
        #: Always-on flight recorder (bounded ring): lifecycle transitions
        #: land here, and the invariant checker / drain path snap the ring
        #: automatically on failure.  Pass your own to share it fabric-wide.
        self.recorder = recorder if recorder is not None else FlightRecorder()
        self.shards: dict[str, SfcController] = {}
        for name in topology.switch_names:
            node = topology.nodes[name]
            instance = ProblemInstance(
                switch=node.spec,
                sfcs=(),
                num_types=num_types,
                max_recirculations=node.max_recirculations,
            )
            self.shards[name] = SfcController(
                instance,
                with_dataplane=with_dataplane,
                rule_factory=rule_factory,
                name=name,
                tracer=tracer,
                recorder=self.recorder,
                fastpath=fastpath,
            )
        self.links: dict[LinkKey, LinkState] = {
            key: LinkState(link.capacity_gbps)
            for key, link in topology.links.items()
        }
        self._link_order: tuple[LinkKey, ...] = tuple(sorted(self.links))
        #: Fabric-level tenant directory (the only cross-switch state).
        #: Changes only through :meth:`_book`, which keeps the link loads,
        #: Σ ``FabricTenant.key`` mod 2**128 and the stitched count in step.
        self.tenants: dict[int, FabricTenant] = {}
        self._dir_hash = 0
        self._stitched = 0
        self.drained: set[str] = set()
        self.metrics = MetricsRegistry()
        # -- concurrency seams (see the module docstring) ----------------
        #: One lock per shard.  ``*_local`` ops hold exactly one; the public
        #: lifecycle methods acquire all of them in sorted-name order.
        self._shard_locks: dict[str, threading.RLock] = {
            name: threading.RLock() for name in topology.switch_names
        }
        self._lock_order: tuple[str, ...] = tuple(
            sorted(topology.switch_names)
        )
        #: Guards the tenant directory, link loads, and gauge refreshes —
        #: the state one-shard scopes on *different* shards share.
        self._dir_lock = threading.RLock()
        #: Optional durability coordinator (:class:`~repro.durability.
        #: checkpoint.FabricDurability`), set by ``attach()``.  Every
        #: successful fabric op is journaled to its one log — the redo log
        #: recovery replays (the shards' own ``durability`` stays unset).
        self.durability = None
        #: HA role: ``"primary"`` serves writes; a ``"standby"`` fabric is
        #: driven only by WAL replay and the frontend refuses writes on it
        #: (role-aware 503 + redirect to the primary).
        self.role = "primary"
        #: Fencing token of the lease reign this fabric serves under
        #: (0 = HA not in play; see :mod:`repro.ha.lease`).
        self.epoch = 0

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def active_switches(self) -> list[str]:
        """Sorted names of switches accepting new placements."""
        return [n for n in self.topology.switch_names if n not in self.drained]

    def metrics_snapshot(self) -> dict:
        """Current fabric metrics as one plain dict."""
        return self.metrics.snapshot()

    def digest(self) -> str:
        """Stable blake2b digest of the whole fabric: every shard's state
        digest, every link's integer load, the tenant directory (count +
        running hash over chains, segments and link charges) and the
        drained set.  Bit-identical fabric states — and only those — hash
        equal; this is the quantity the durability subsystem journals per
        LSN and recovery must reproduce.  O(shards + links): no tenant walk.
        """
        h = hashlib.blake2b(digest_size=16)
        for name in self.topology.switch_names:
            h.update(f"{name}={self.shards[name].state.digest()};".encode())
        for a, b in self._link_order:
            link = self.links[(a, b)]
            h.update(f"{a}-{b}={link.load_bps}/{link.capacity_bps};".encode())
        h.update(b"%d:%032x;" % (len(self.tenants), self._dir_hash))
        h.update(",".join(sorted(self.drained)).encode())
        return h.hexdigest()

    def summary(self) -> dict:
        """Aggregate fabric state as one JSON-native dict: per-switch
        occupancy, link loads, tenant/stitch counts."""
        switches = {}
        for name in self.topology.switch_names:
            shard = self.shards[name]
            switches[name] = {
                "tenants": len(shard.tenants),
                "backplane_gbps": shard.state.backplane_gbps,
                "blocks_used": [
                    shard.state.blocks_at_stage(s)
                    for s in range(shard.base.switch.stages)
                ],
                "drained": name in self.drained,
            }
        links = {
            f"{a}-{b}": {
                "load_gbps": self.links[(a, b)].load_gbps,
                "capacity_gbps": self.links[(a, b)].capacity_gbps,
            }
            for a, b in sorted(self.links)
        }
        counters = self.metrics.snapshot()["counters"]
        return {
            "switches": switches,
            "links": links,
            "tenants": len(self.tenants),
            "stitched_tenants": self._stitched,
            "globalopt": {
                "runs": int(counters.get("globalopt.runs", 0)),
                "moves_planned": int(
                    counters.get("globalopt.moves_planned", 0)
                ),
                "moves_executed": int(
                    counters.get("globalopt.moves_executed", 0)
                ),
                "moves_skipped": int(
                    counters.get("globalopt.moves_skipped", 0)
                ),
                "moves_failed": int(
                    counters.get("globalopt.moves_failed", 0)
                ),
            },
        }

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------
    @contextmanager
    def _fabric_locked(self):
        """Hold every shard lock, acquired in sorted-name order — the
        fabric-wide total order that makes cross-shard ops deadlock-free
        against the ``*_local`` entry points (which never hold more than
        one shard lock, so they can never close a cycle)."""
        for name in self._lock_order:
            self._shard_locks[name].acquire()
        try:
            yield
        finally:
            for name in reversed(self._lock_order):
                self._shard_locks[name].release()

    def _reject(
        self, tenant_id: int, op: str, reason: str, detail: str, timer: Timer
    ) -> FabricOpResult:
        self.metrics.inc("rejected")
        self.metrics.inc(f"rejected.{reason}")
        return FabricOpResult(
            ok=False,
            tenant_id=tenant_id,
            op=op,
            reason=reason,
            detail=detail,
            latency_s=timer.elapsed_s,
        )

    def _record_op(self, result: FabricOpResult) -> None:
        """Log one fabric lifecycle outcome into the flight recorder."""
        self.recorder.record_state(
            f"fabric.{result.op}",
            tenant=result.tenant_id,
            ok=result.ok,
            switches=list(result.switches),
            stitched=result.stitched,
            reason=result.reason,
        )

    def _commit_durable(
        self, op: str, data: dict, shard: str | None = None
    ) -> None:
        """Journal one successful fabric op with the post-op digest the
        caller's locks make consistent — recovery's per-LSN oracle.
        ``shard`` names the one shard lock the caller holds; ``None``
        means it holds them all."""
        if self.durability is None:
            return
        payload = dict(data)
        if shard is None:
            payload["digest"] = self.digest()
        else:
            payload["shard_digests"] = {shard: self.shards[shard].state.digest()}
        self.durability.commit_op(self, op, payload, checkpoint=shard is None)

    def _refresh_gauges(self) -> None:
        with self._dir_lock:
            self.metrics.gauge("tenants").set(len(self.tenants))
            self.metrics.gauge("stitched_tenants").set(self._stitched)
            for name, shard in self.shards.items():
                self.metrics.gauge(f"backplane_gbps.{name}").set(
                    shard.state.backplane_gbps
                )
                self.metrics.gauge(f"tenants.{name}").set(len(shard.tenants))
            for (a, b), link in self.links.items():
                self.metrics.gauge(f"link_load_gbps.{a}-{b}").set(
                    link.load_gbps
                )

    def promote(self, epoch: int, durability=None) -> list[str]:
        """Promote-from-replica entry point: flip a standby-replayed fabric
        into the serving primary at lease ``epoch``.

        Validates the fabric invariant, adopts the new fencing token, and —
        when a fresh :class:`~repro.durability.checkpoint.FabricDurability`
        is supplied (built with ``start_lsn`` = the replica's applied LSN,
        so the journal continues the failed primary's LSN sequence) —
        attaches it, stamps it with the new epoch, and takes an immediate
        checkpoint so the promoted state is durable before the first write
        is served.  Returns the invariant problems (empty = clean
        takeover); on problems the durability attach still happens but the
        checkpoint is skipped, mirroring recovery's behaviour."""
        with self._fabric_locked():
            problems = self.check_invariant()
            self.role = "primary"
            self.epoch = int(epoch)
            if durability is not None:
                durability.attach(self)
                durability.set_epoch(self.epoch)
                if not problems:
                    durability.checkpoint(self)
            self._refresh_gauges()
            self.metrics.inc("ha.promotions")
            self.recorder.snap(
                "ha-promote",
                epoch=self.epoch,
                digest=self.digest(),
                ok=not problems,
            )
        return problems

    def _book(
        self, tenant_id: int, record: FabricTenant | None
    ) -> FabricTenant | None:
        """The one seam the directory changes through: file ``record``
        (``None`` = remove) and return the record it displaced.  Link loads
        move by the difference of the two records' ``links`` (old released
        first), and the directory hash and stitched count follow."""
        with self._dir_lock:
            old = self.tenants.get(tenant_id)
            if old is not None:
                for key in old.links:
                    self.links[key].release_load(old.sfc.bw_bps)
                self._dir_hash = (self._dir_hash - old.key) % _DIR_HASH_MOD
                self._stitched -= old.stitched
            if record is None:
                self.tenants.pop(tenant_id, None)
            else:
                for key in record.links:
                    self.links[key].add_load(record.sfc.bw_bps)
                # Assigned in place: a re-filed tenant keeps its position,
                # so anything that walks the directory sees the same order.
                self.tenants[tenant_id] = record
                self._dir_hash = (self._dir_hash + record.key) % _DIR_HASH_MOD
                self._stitched += record.stitched
        return old

    def _observe_admit(self, switch: str, result: OpResult) -> None:
        self.metrics.observe(f"admit_latency_s.{switch}", result.latency_s)

    def _commit_stitch(
        self, sfc: SFC, plan: StitchPlan, op: str, order: list[str], timer: Timer
    ) -> FabricOpResult | None:
        """Admit both planned segments and charge the link; ``None`` (with
        any partial admit rolled back) if a shard refuses after all —
        planning probed ``can_host``, so only a data-plane surprise can
        land here."""
        head_res = self.shards[plan.head_switch].admit(plan.head)
        self._observe_admit(plan.head_switch, head_res)
        if not head_res.ok:
            return None
        tail_res = self.shards[plan.tail_switch].admit(plan.tail)
        self._observe_admit(plan.tail_switch, tail_res)
        if not tail_res.ok:
            self.shards[plan.head_switch].evict(sfc.tenant_id)
            return None
        result = self._file(
            sfc, op,
            [
                (plan.head_switch, plan.head, head_res),
                (plan.tail_switch, plan.tail, tail_res),
            ],
            timer, order.index(plan.head_switch), (plan.link,),
        )
        self.metrics.inc("stitched")
        return result

    def _file(
        self, sfc: SFC, op: str, parts: list[tuple[str, SFC, OpResult]],
        timer: Timer, spillover: int = 0, links: tuple[LinkKey, ...] = (),
    ) -> FabricOpResult:
        """File ``sfc`` in the directory as hosted on ``parts`` — one
        ``(switch, segment chain, that shard's accepting result)`` per
        segment in chain order: one for a tenant homed whole on a switch,
        two for a stitched one — and build the fabric result from the
        shards'."""
        segments: list[Segment] = []
        for switch, seg_sfc, shard_res in parts:
            start = segments[-1].stop if segments else 0
            segments.append(
                Segment(
                    switch=switch,
                    sfc=seg_sfc,
                    start=start,
                    stop=start + seg_sfc.length,
                    stages=shard_res.stages,
                )
            )
        self._book(
            sfc.tenant_id,
            FabricTenant(sfc=sfc, segments=tuple(segments), links=links),
        )
        results = [shard_res for _switch, _sfc, shard_res in parts]
        return FabricOpResult(
            ok=True,
            tenant_id=sfc.tenant_id,
            op=op,
            switches=tuple(seg.switch for seg in segments),
            stitched=len(segments) > 1,
            spillover=spillover,
            hitless=all(res.hitless for res in results),
            rules_added=sum(res.rules_added for res in results),
            rules_deleted=sum(res.rules_deleted for res in results),
            latency_s=timer.elapsed_s,
        )

    def _place(
        self, sfc: SFC, op: str, timer: Timer, scope: str | None = None
    ) -> FabricOpResult | None:
        """Route one chain: preferred shard first, spillover down the
        ring order, cross-switch stitching as the last resort.
        Scoped to one shard, try exactly that shard and return ``None``
        (escalate) if it is drained or refuses — everything past the first
        choice needs a second shard."""
        if scope is None:
            order = self.partitioner.order(sfc, self)
            if not order:
                return self._reject(
                    sfc.tenant_id, op, "no-active-switch",
                    "every fabric switch is drained", timer,
                )
        elif scope in self.drained:
            return None
        else:
            order = [scope]
        last: OpResult | None = None
        for rank, name in enumerate(order):
            result = self.shards[name].admit(sfc)
            self._observe_admit(name, result)
            if result.ok:
                if rank:
                    self.metrics.inc("spillovers")
                return self._file(sfc, op, [(name, sfc, result)], timer, rank)
            last = result
        if scope is not None:
            return None
        plan = plan_stitch(self, sfc, order)
        if plan is not None:
            stitched = self._commit_stitch(sfc, plan, op, order, timer)
            if stitched is not None:
                return stitched
        assert last is not None  # order was non-empty
        return self._reject(
            sfc.tenant_id, op, last.reason or "no-feasible-placement",
            f"no single switch fits and stitching failed; last shard said: "
            f"{last.detail}", timer,
        )

    def _remove(self, tenant_id: int) -> tuple[FabricTenant, int]:
        """Evict every segment of a directory tenant and release its link
        charges; returns the removed record and the rule-churn total.
        Caller holds the lock of every shard the tenant touches."""
        record = self._book(tenant_id, None)
        deleted = 0
        for seg in record.segments:
            result = self.shards[seg.switch].evict(tenant_id)
            deleted += result.rules_deleted
        return record, deleted

    # ------------------------------------------------------------------
    # Lifecycle operations
    # ------------------------------------------------------------------
    #: What each op's span reports next to ``ok``.
    _SPAN_ATTRS = {
        "admit": lambda r: {"switches": list(r.switches), "stitched": r.stitched},
        "evict": lambda r: {"switches": list(r.switches)},
        "modify": lambda r: {"hitless": r.hitless},
    }

    def _run(
        self, op: str, tenant_id: int, scope: str | None, body: _Body,
        sfc: SFC | None = None,
    ) -> FabricOpResult | None:
        """The lifecycle skeleton: span + timer → ``body(timer, scope)`` →
        flight-record → journal under the key ``scope`` can vouch for.  The
        caller holds the scope's lock(s); ``sfc`` is the chain replay needs
        to re-drive the op."""
        with maybe_span(
            self.tracer, f"fabric.{op}", tenant=tenant_id
        ) as span, self.metrics.timer(f"op_latency_s.{op}") as timer:
            result = body(timer, scope)
            if result is None:
                span.set(escalated=True)
                return None
            span.set(ok=result.ok, **self._SPAN_ATTRS[op](result))
        self._record_op(result)
        # Failed modifies are journaled too (unless trivially rejected): a
        # refused re-home still evicts + re-places the old chain, which can
        # land the tenant on different switches — a state change replay
        # must re-drive.
        if result.ok or (op == "modify" and result.reason != "unknown-tenant"):
            data: dict = {"tenant_id": tenant_id}
            if sfc is not None:
                data["sfc"] = sfc.to_dict()
            if op == "modify":
                data["ok"] = result.ok
            self._commit_durable(op, data, shard=scope)
        return result

    def _run_at_home(
        self, op: str, tenant_id: int, body: _Body, sfc: SFC | None = None
    ) -> FabricOpResult | None:
        """:meth:`_run` an evict/modify body under the tenant's home-shard
        lock alone.  An unknown tenant is rejected without taking any shard
        lock; a stitched one touches two shards and a link, so it
        escalates."""
        with self._dir_lock:
            record = self.tenants.get(tenant_id)
        if record is None:
            # A rejection journals nothing, so the scope is moot.
            return self._run(
                op, tenant_id, None, partial(self._unknown_tenant, tenant_id, op)
            )
        if record.stitched:
            return None
        home = record.segments[0].switch
        with self._shard_locks[home]:
            # Revalidate under the lock: a cross-shard op (drain is keyed
            # by switch, so the queue does not serialize it against this
            # tenant's intents) may have re-homed or evicted the tenant
            # between routing and locking.  Mutating through a stale home
            # lock would race the real home's worker, so escalate instead.
            if self.home_switch(tenant_id) != home:
                return None
            return self._run(op, tenant_id, home, body, sfc)

    def _unknown_tenant(
        self, tenant_id: int, op: str, timer: Timer, _scope: str | None = None
    ) -> FabricOpResult:
        return self._reject(
            tenant_id, op, "unknown-tenant",
            f"tenant {tenant_id} has no live chain", timer,
        )

    def admit(self, sfc: SFC) -> FabricOpResult:
        """Admit one tenant chain somewhere on the fabric."""
        with self._fabric_locked():
            return self._run(
                "admit", sfc.tenant_id, None, partial(self._admit, sfc), sfc
            )

    def admit_local(self, sfc: SFC, switch: str) -> FabricOpResult | None:
        """One-shard admit: try exactly ``switch`` (the caller's routing
        choice, normally :meth:`preferred_switch`) under that shard's lock
        alone.  Returns the result when the outcome is decided locally —
        success, or a duplicate-tenant rejection — and ``None`` when this
        shard is drained or refuses and the caller must escalate to
        :meth:`admit` (spillover / stitching need the fabric-wide lock
        order)."""
        lock = self._shard_locks.get(switch)
        if lock is None:
            raise PlacementError(f"unknown switch {switch!r}")
        with lock:
            return self._run(
                "admit", sfc.tenant_id, switch, partial(self._admit, sfc), sfc
            )

    def _admit(
        self, sfc: SFC, timer: Timer, scope: str | None
    ) -> FabricOpResult | None:
        with self._dir_lock:
            duplicate = sfc.tenant_id in self.tenants
        if duplicate:
            return self._reject(
                sfc.tenant_id, "admit", "duplicate-tenant",
                f"tenant {sfc.tenant_id} already has a live chain", timer,
            )
        result = self._place(sfc, "admit", timer, scope)
        if result is not None and result.ok:
            self.metrics.inc("admitted")
            self._refresh_gauges()
        return result

    def evict(self, tenant_id: int) -> FabricOpResult:
        """Tenant departure: tear down every segment, release links."""
        with self._fabric_locked():
            return self._run(
                "evict", tenant_id, None, partial(self._evict, tenant_id)
            )

    def evict_local(self, tenant_id: int) -> FabricOpResult | None:
        """One-shard evict under the tenant's home-shard lock alone.
        Decides unknown tenants (rejection) and single-homed tenants
        locally; returns ``None`` for stitched (or just re-homed) tenants,
        which must go through :meth:`evict`."""
        return self._run_at_home(
            "evict", tenant_id, partial(self._evict, tenant_id)
        )

    def _evict(
        self, tenant_id: int, timer: Timer, _scope: str | None
    ) -> FabricOpResult:
        """Never escalates: a scoped caller (:meth:`_run_at_home`) only
        lets a tenant homed whole on the scope's shard through, and
        removing one touches no other shard."""
        if tenant_id not in self.tenants:
            return self._unknown_tenant(tenant_id, "evict", timer)
        record, deleted = self._remove(tenant_id)
        self.metrics.inc("evicted")
        self._refresh_gauges()
        return FabricOpResult(
            ok=True,
            tenant_id=tenant_id,
            op="evict",
            switches=record.switches,
            stitched=record.stitched,
            rules_deleted=deleted,
            latency_s=timer.elapsed_s,
        )

    def modify(self, tenant_id: int, new_chain: SFC) -> FabricOpResult:
        """Swap a live tenant's chain.  Single-homed tenants first try a
        hitless in-place modify on their home shard; stitched tenants (or
        a home-shard refusal) fall back to re-homing — evict then re-admit
        through the normal routing path (not hitless).  If the new chain
        fits nowhere, the old chain is restored (its resources were just
        freed, so the same routing re-places it) and the rejection is
        returned."""
        with self._fabric_locked():
            return self._run(
                "modify", tenant_id, None,
                partial(self._modify, tenant_id, new_chain), new_chain,
            )

    def modify_local(
        self, tenant_id: int, new_chain: SFC
    ) -> FabricOpResult | None:
        """One-shard modify: hitless in-place swap on a single-homed
        tenant's home shard, under that shard's lock alone.  Returns
        ``None`` for stitched tenants or when the home shard refuses the
        in-place swap — re-homing evicts and re-routes, so it must go
        through :meth:`modify`."""
        return self._run_at_home(
            "modify", tenant_id,
            partial(self._modify, tenant_id, new_chain), new_chain,
        )

    def _modify(
        self, tenant_id: int, new_chain: SFC, timer: Timer, scope: str | None
    ) -> FabricOpResult | None:
        record = self.tenants.get(tenant_id)
        if record is None:
            return self._unknown_tenant(tenant_id, "modify", timer)
        new_sfc = replace(new_chain, tenant_id=tenant_id)
        if not record.stitched:
            home = record.segments[0].switch
            result = self.shards[home].modify(tenant_id, new_sfc)
            if result.ok:
                placed = self._file(
                    new_sfc, "modify", [(home, new_sfc, result)], timer
                )
                self.metrics.inc("modified")
                self._refresh_gauges()
                return placed
        if scope is not None:
            return None  # re-homing needs the fabric-wide lock order
        old_record, deleted = self._remove(tenant_id)
        placed = self._place(new_sfc, "modify", timer)
        if placed.ok:
            self.metrics.inc("modified")
            self.metrics.inc("modify_rehomed")
            self._refresh_gauges()
            placed.hitless = False
            placed.rules_deleted += deleted
            return placed
        restored = self._place(old_record.sfc, "modify", timer)
        if not restored.ok:
            # Should be unreachable (the old chain's resources were just
            # freed); counted so a regression cannot hide.
            self.metrics.inc("modify_restore_failed")
        self._refresh_gauges()
        return placed

    # ------------------------------------------------------------------
    # Drain / failover
    # ------------------------------------------------------------------
    def drain(self, switch: str) -> DrainReport:
        """Take ``switch`` out of service: exclude it from routing, then
        re-home every tenant with a segment on it through the normal admit
        path on the surviving shards.  Tenants that fit nowhere else are
        evicted.  Afterwards the drained shard hosts zero tenants and zero
        tenant rules.  Tenants that could not be re-homed snap the flight
        recorder, preserving the event window that led to each eviction."""
        if switch not in self.shards:
            raise PlacementError(f"unknown switch {switch!r}")
        with self._fabric_locked():
            with maybe_span(
                self.tracer, "fabric.drain", switch=switch
            ) as span, self.metrics.timer("op_latency_s.drain"):
                self.drained.add(switch)
                affected = sorted(
                    tenant_id
                    for tenant_id, record in self.tenants.items()
                    if switch in record.switches
                )
                rehomed: list[int] = []
                evicted: list[int] = []
                for tenant_id in affected:
                    record, _deleted = self._remove(tenant_id)
                    placed = self._place(record.sfc, "drain", Timer())
                    if placed.ok:
                        rehomed.append(tenant_id)
                    else:
                        evicted.append(tenant_id)
                self.metrics.inc("drains")
                self.metrics.inc("drain.rehomed", len(rehomed))
                self.metrics.inc("drain.evicted", len(evicted))
                self._refresh_gauges()
                span.set(rehomed=len(rehomed), evicted=len(evicted))
            self.recorder.record_state(
                "fabric.drain", switch=switch,
                rehomed=list(rehomed), evicted=list(evicted),
            )
            if evicted:
                self.recorder.snap(
                    "drain-evicted-tenants", switch=switch,
                    evicted=list(evicted),
                )
            self._commit_durable(
                "drain",
                {
                    "switch": switch,
                    "rehomed": list(rehomed),
                    "evicted": list(evicted),
                },
            )
        return DrainReport(
            switch=switch, rehomed=tuple(rehomed), evicted=tuple(evicted)
        )

    def undrain(self, switch: str) -> None:
        """Return a drained switch to the routing pool (its tenants do not
        move back; new arrivals may land on it again)."""
        if switch not in self.shards:
            raise PlacementError(f"unknown switch {switch!r}")
        with self._fabric_locked():
            self.drained.discard(switch)
            self._commit_durable("undrain", {"switch": switch})

    # ------------------------------------------------------------------
    # Global re-optimization (see :mod:`repro.globalopt`)
    # ------------------------------------------------------------------
    def reoptimize(self, **kwargs):
        """Run one fleet-wide re-optimization pass: snapshot the fabric,
        re-solve the tenant->switch assignment, and hitlessly migrate the
        wins.  Thin wrapper over :func:`repro.globalopt.reoptimize_fabric`
        (``mode``, ``min_benefit``, ``max_moves`` and ``execute`` pass
        through); returns its :class:`~repro.globalopt.ReoptReport`."""
        from repro.globalopt import reoptimize_fabric

        return reoptimize_fabric(self, **kwargs)

    # ------------------------------------------------------------------
    # Routing views (how the concurrent front end picks a worker)
    # ------------------------------------------------------------------
    def preferred_switch(self, sfc: SFC) -> str | None:
        """The ring's first active choice for ``sfc`` — the shard the
        front end routes an admit intent to (``None`` = all drained).  The
        ring is a pure function of the tenant id and the active switch set,
        so concurrent routing replays; see :mod:`repro.fabric.partitioner`."""
        order = self.partitioner.order(sfc, self)
        return order[0] if order else None

    def home_switch(self, tenant_id: int) -> str | None:
        """The single home shard of ``tenant_id`` — how the front end
        routes evict/modify intents.  ``None`` when the tenant is unknown
        (any worker may reject it) or stitched (escalate)."""
        with self._dir_lock:
            record = self.tenants.get(tenant_id)
            if record is None or record.stitched:
                return None
            return record.segments[0].switch

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------
    def probe_tenant(self, tenant_id: int) -> bool:
        """End-to-end forwarding check: inject one probe packet per segment
        and require each to execute its segment's *complete* installed rule
        generation, with the segments jointly covering the whole logical
        chain.  Needs the data plane."""
        from repro.controller.install import TENANT_MAP
        from repro.dataplane.packet import Packet

        if not self.with_dataplane:
            raise PlacementError("probe_tenant needs with_dataplane=True")
        record = self.tenants.get(tenant_id)
        if record is None:
            return False
        covered = 0
        for seg in record.segments:
            shard = self.shards[seg.switch]
            assert shard.pipeline is not None and shard.installer is not None
            [result] = shard.pipeline.process_batch(
                [Packet(tenant_id=tenant_id, pass_id=1)], trace=True
            )
            applied = [t for t in result.applied_tables() if t != TENANT_MAP]
            expected = [
                nf.table_name
                for nf in shard.installer.installed[tenant_id].compiled
            ]
            if applied != expected:
                return False
            covered += len(applied)
        return covered == record.sfc.length

    def check_invariant(self) -> list[str]:
        """Audit the whole fabric against a from-scratch recomputation.

        Per shard: the incremental :class:`PipelineState` must be
        bit-identical to :meth:`PipelineState.from_placement` over that
        shard's surviving tenants.  Per link, and for the directory hash
        and stitched count: the running value must equal its recomputation
        from the directory.  Plus directory/shard cross-consistency and
        empty drained shards.
        Returns human-readable problem strings (empty = invariant holds);
        any problem snaps the flight recorder so the run-up to the drift is
        preserved alongside the findings.
        """
        problems: list[str] = []
        for name in self.topology.switch_names:
            shard = self.shards[name]
            reference = PipelineState.from_placement(shard.placement)
            for s in range(shard.base.switch.stages):
                if shard.state.blocks_at_stage(s) != reference.blocks_at_stage(s):
                    problems.append(f"{name}: stage {s} block total drifted")
            # Every field is an exact integer, so digest equality *is*
            # state equality; on a mismatch say which fields moved.
            if shard.state.digest() != reference.digest():
                drifted = [
                    field
                    for field in ("entries", "nf_blocks", "physical", "backplane_bps")
                    if not np.array_equal(
                        getattr(shard.state, field), getattr(reference, field)
                    )
                ]
                problems.append(
                    f"{name}: state digest {shard.state.digest()} != recomputed "
                    f"{reference.digest()} (drifted: {', '.join(drifted)})"
                )
            expected_tenants = {
                tenant_id
                for tenant_id, record in self.tenants.items()
                if name in record.switches
            }
            if set(shard.tenants) != expected_tenants:
                problems.append(
                    f"{name}: shard tenants {sorted(shard.tenants)} != "
                    f"directory {sorted(expected_tenants)}"
                )
        for tenant_id in sorted(self.tenants):
            for seg in self.tenants[tenant_id].segments:
                shard_record = self.shards[seg.switch].tenants.get(tenant_id)
                if shard_record is None or shard_record.sfc != seg.sfc:
                    problems.append(
                        f"tenant {tenant_id}: segment on {seg.switch} does "
                        f"not match the shard's record"
                    )
        expected_loads = dict.fromkeys(self.links, 0)
        for record in self.tenants.values():
            for key in record.links:
                expected_loads[key] += record.sfc.bw_bps
        for key in self._link_order:
            if self.links[key].load_bps != expected_loads[key]:
                problems.append(
                    f"link {key}: load {self.links[key].load_bps} bps != "
                    f"recomputed {expected_loads[key]}"
                )
        running = (self._dir_hash, self._stitched)
        expected = (
            sum(record.key for record in self.tenants.values()) % _DIR_HASH_MOD,
            sum(record.stitched for record in self.tenants.values()),
        )
        if running != expected:
            problems.append(
                f"directory (hash, stitched count) {running} != recomputed "
                f"{expected}"
            )
        for name in sorted(self.drained):
            shard = self.shards[name]
            if shard.tenants or shard.state.entries.sum() != 0:
                problems.append(f"{name}: drained but not empty")
        if problems:
            self.recorder.snap("fabric-invariant-violated", problems=problems)
        return problems
