"""The tenant-facing SFC control-plane facade (paper §V-E, as a service).

:class:`SfcController` owns the full tenant lifecycle over one switch:

1. **admit** — screen the request through admission control
   (:mod:`repro.controller.admission`), solve a placement for it against the
   live residual resources (the greedy engine's ``Try_placement``), and — when
   a data plane is attached — install the chain's rules through the
   transactional two-phase installer (:mod:`repro.controller.install`).
2. **evict** — release the chain's control-plane resources and
   garbage-collect its data-plane rules.
3. **modify** — swap a live tenant's chain for a new one, make-before-break
   on the data plane (hitless unless the transient double occupancy does not
   fit, in which case the installer degrades to break-before-make and the
   result says so).

Control-plane state and the data plane are kept transactional *together*: a
data-plane rejection rolls the control-plane resource accounting back to its
pre-event snapshot, so the two sides never diverge.

The controller maintains one strict invariant, exercised by the churn test
suite: after any event sequence, its incremental
:class:`~repro.core.state.PipelineState` is **bit-identical** (exact integer
arrays, exact integer backplane) to a from-scratch recomputation over the
surviving placement — by construction: bandwidth is integer bits per
second, so add-on-admit / subtract-on-evict is exact in any order.

Like the paper's incremental updater, drift from the global optimum can be
bounded: :meth:`SfcController.maybe_reconfigure` compares the live placement
against a fresh greedy solve over the surviving population — the drift gap
is the fraction of backplane bandwidth a fresh solve would reclaim — and
adopts the reference once the gap exceeds the configured threshold (an
expensive full reinstall, counted as such in the metrics).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Iterable

from repro.controller.admission import AdmissionDecision, check_admission
from repro.controller.install import TransactionalInstaller
from repro.core.greedy import _ensure_all_types, greedy_place, sfc_metric, try_place_chain
from repro.core.placement import NFAssignment, Placement
from repro.core.spec import SFC, ProblemInstance
from repro.core.state import PipelineState
from repro.dataplane.pipeline import SwitchPipeline
from repro.dataplane.table import TableEntry
from repro.dataplane.virtualization import LogicalNF, LogicalSFC, physical_table_name
from repro.errors import DataPlaneError, DurabilityError
from repro.nfs.registry import get_nf, install_physical_nf
from repro.telemetry.metrics import MetricsRegistry, Timer
from repro.telemetry.recorder import FlightRecorder
from repro.telemetry.spans import Tracer, maybe_span
from repro.units import GBPS

#: ``rule_factory(sfc, position, nf_name) -> rules`` — the concrete table
#: entries carried by one NF of a tenant's chain on the functional data
#: plane.  The *control plane* accounts ``sfc.rules[position]`` entries
#: regardless; the factory only decides what the packet-level mirror runs.
RuleFactory = Callable[[SFC, int, str], tuple[TableEntry, ...]]


def default_rule_factory(sfc: SFC, position: int, nf_name: str) -> tuple[TableEntry, ...]:
    """One catch-all permit rule per NF: enough for the functional mirror to
    observe which tables a packet traverses, without installing the full
    accounting-scale rule set."""
    return (TableEntry(match={}, action="permit", priority=-1),)


def _duplicate(tenant_id: int) -> AdmissionDecision:
    """The refusal of a second chain for a live tenant."""
    return AdmissionDecision(
        admitted=False,
        reason="duplicate-tenant",
        detail=f"tenant {tenant_id} already has a live chain",
    )


@dataclass
class TenantRecord:
    """Control-plane bookkeeping for one live tenant."""

    sfc: SFC
    stages: tuple[int, ...]

    def backplane_bps(self, stages_per_pass: int) -> int:
        """The chain's Eq. 12 charge: its bandwidth once per pipeline pass."""
        return -(-self.stages[-1] // stages_per_pass) * self.sfc.bw_bps


@dataclass
class OpResult:
    """Outcome of one controller operation (admit / evict / modify)."""

    ok: bool
    tenant_id: int
    op: str
    reason: str | None = None
    detail: str = ""
    stages: tuple[int, ...] | None = None
    #: False only when a modify degraded to break-before-make.
    hitless: bool = True
    latency_s: float = 0.0
    #: Rule entries the op installed / removed (a chain's ``total_rules``).
    rules_added: int = 0
    rules_deleted: int = 0


class SfcController:
    """Tenant lifecycle (admit / evict / modify) over one switch."""

    def __init__(
        self,
        instance: ProblemInstance,
        with_dataplane: bool = True,
        reconfigure_threshold: float | None = None,
        rule_factory: RuleFactory | None = None,
        name: str = "switch",
        tracer: Tracer | None = None,
        recorder: FlightRecorder | None = None,
        fastpath: bool = False,
    ) -> None:
        """``instance`` supplies the switch, catalog size and recirculation
        budget (its candidate SFCs, if any, are *not* auto-admitted).  With
        ``with_dataplane=False`` the controller runs control-plane only —
        the mode the fig. 11 experiment replays at scale.  ``name`` labels
        this controller's switch — the fabric orchestrator runs one
        controller per fabric switch and keys reports by it.  Accounting is
        SFP's serving model: consolidated blocks (Eq. 11/24), and an
        installed physical NF reserves one (§IV).

        ``tracer``/``recorder`` are the optional telemetry hooks: with a
        tracer attached every lifecycle op opens a ``controller.<op>`` span
        whose children cover admission, placement, the two-phase install and
        each ``runtime.write`` batch; a recorder additionally keeps the
        recent state transitions in its ring."""
        self.base = instance
        self.name = name
        self.reconfigure_threshold = reconfigure_threshold
        self.rule_factory = rule_factory or default_rule_factory
        self.state = PipelineState(instance)
        self.tenants: dict[int, TenantRecord] = {}
        #: Eq. 1/14's objective Σ ``bw_bps × J``, kept by :meth:`_book`.
        self._objective_bps = 0
        self.metrics = MetricsRegistry()
        self.tracer = tracer
        self.recorder = recorder
        #: Optional durability sink (duck-typed ``commit_op(controller, op,
        #: data)``): a :class:`~repro.durability.checkpoint.
        #: ControllerDurability` for a standalone controller; a fabric's
        #: shard controllers leave it unset (the fabric journals their ops).
        #: Set by ``attach()``; every *successful* lifecycle op is journaled
        #: through it after it commits.
        self.durability = None
        self.with_dataplane = with_dataplane
        self.pipeline: SwitchPipeline | None = None
        self.installer: TransactionalInstaller | None = None
        self.fastpath = None
        if with_dataplane:
            self.pipeline = SwitchPipeline(
                instance.switch,
                max_passes=instance.max_recirculations + 1,
                name=name,
            )
            self.installer = TransactionalInstaller(self.pipeline)
            # Cascade the tracer down the install path so one admit yields
            # one causally linked tree: controller -> install -> runtime.write.
            self.installer.tracer = tracer
            self.installer.api.tracer = tracer
            if fastpath:
                # Compiled dataplane fast path: batches execute on the
                # columnar kernel; the installer's RuntimeAPI writes tell the
                # engine which tenants' blocks to drop.
                from repro.fastpath import FastPathEngine

                self.fastpath = FastPathEngine.attach(self.pipeline)

    # ------------------------------------------------------------------
    @classmethod
    def for_instance(
        cls, instance: ProblemInstance, with_dataplane: bool = True, **kwargs
    ) -> "SfcController":
        """Build a controller sized for ``instance`` (convenience alias of
        the constructor, kept for call-site readability)."""
        return cls(instance, with_dataplane=with_dataplane, **kwargs)

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    @property
    def population_instance(self) -> ProblemInstance:
        """The live tenants as a problem instance (sorted by tenant ID) —
        what a from-scratch reference solve sees."""
        ordered = sorted(self.tenants)
        return self.base.with_sfcs([self.tenants[t].sfc for t in ordered])

    @property
    def placement(self) -> Placement:
        """The live placement over :attr:`population_instance` (assignments
        keyed in sorted-tenant order) — what the churn invariant rebuilds a
        reference :class:`PipelineState` from."""
        ordered = sorted(self.tenants)
        assignments = {
            idx: NFAssignment(sfc_index=idx, stages=self.tenants[t].stages)
            for idx, t in enumerate(ordered)
        }
        return Placement(
            instance=self.population_instance,
            physical=self.state.physical.copy(),
            assignments=assignments,
            algorithm="controller",
        )

    def metrics_snapshot(self) -> dict:
        """Current metrics as one plain dict (see :mod:`.metrics`)."""
        return self.metrics.snapshot()

    def screen(self, sfc: SFC) -> AdmissionDecision:
        """The decision :meth:`admit` reaches before it places anything,
        without running an op: the duplicate-tenant test, then the
        admission screen against the live state.  Pure — no state, metric
        or span changes — so the fabric asks it of every shard on the
        ring and runs :meth:`admit` only where it passes; a refusal
        carries the reason and detail :meth:`admit` would give."""
        if sfc.tenant_id in self.tenants:
            return _duplicate(sfc.tenant_id)
        return check_admission(sfc, self.state)

    def can_host(self, sfc: SFC) -> bool:
        """Non-mutating feasibility probe: would :meth:`admit` accept this
        chain right now?  :meth:`screen`, then a trial placement that is
        rolled back — no tenant state, metrics, or data-plane rules
        change.  The fabric's stitch planner uses this to screen
        segment/switch candidates before committing any shard."""
        if not self.screen(sfc):
            return False
        snap = self.state.snapshot()
        stages = try_place_chain(self.state, sfc, self.base.virtual_stages)
        if stages is None:
            return False
        self.state.restore(snap)
        return True

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------
    def _book(
        self, tenant_id: int, record: TenantRecord | None
    ) -> TenantRecord | None:
        """The seam :attr:`tenants` changes through: file ``record``
        (``None`` = remove), keep the objective in step, return the old."""
        old = self.tenants.get(tenant_id)
        if old is not None:
            self._objective_bps -= old.sfc.bw_bps * old.sfc.length
        if record is None:
            self.tenants.pop(tenant_id, None)
        else:
            self.tenants[tenant_id] = record  # in place: keeps dict position
            self._objective_bps += record.sfc.bw_bps * record.sfc.length
        return old

    def _refresh_gauges(self) -> None:
        self.metrics.gauge("tenants").set(len(self.tenants))
        self.metrics.gauge("backplane_gbps").set(self.state.backplane_gbps)
        self.metrics.gauge("objective").set(self._objective_bps / GBPS)

    def _reject(
        self, tenant_id: int, op: str, reason: str, detail: str, timer: Timer
    ) -> OpResult:
        self.metrics.inc("rejected")
        self.metrics.inc(f"rejected.{reason}")
        return OpResult(
            ok=False,
            tenant_id=tenant_id,
            op=op,
            reason=reason,
            detail=detail,
            latency_s=timer.elapsed_s,
        )

    def _record_op(self, result: OpResult) -> None:
        """Log one lifecycle outcome as a flight-recorder state transition."""
        if self.recorder is not None:
            self.recorder.record_state(
                f"controller.{result.op}",
                switch=self.name,
                tenant=result.tenant_id,
                ok=result.ok,
                reason=result.reason,
            )

    def _commit_durable(self, op: str, result: OpResult, data: dict) -> None:
        """Journal one *successful* lifecycle op to the attached durability
        sink.  The record carries everything replay needs to re-drive the op
        (the chain, the tenant) plus the post-op state digest, which gives
        recovery a per-LSN oracle to verify bit-identical reconstruction
        against.  Failed ops are not journaled — they did not change state."""
        if self.durability is None or not result.ok:
            return
        payload = dict(data)
        payload["tenant_id"] = result.tenant_id
        if result.stages is not None:
            payload["stages"] = list(result.stages)
        payload["digest"] = self.state.digest()
        self.durability.commit_op(self, op, payload)

    def _release(self, record: TenantRecord) -> None:
        """Return a chain's rule entries and backplane charge to the state."""
        S = self.base.switch.stages
        for j, k in enumerate(record.stages):
            self.state.remove_logical_nf(
                record.sfc.nf_types[j] - 1, (k - 1) % S, record.sfc.rules[j]
            )
        self.state.release_backplane(record.backplane_bps(S))

    def _logical(self, sfc: SFC) -> LogicalSFC:
        """Lower a control-plane SFC to the data plane's logical form, with
        concrete rules from the controller's rule factory."""
        nfs = []
        for j, type_id in enumerate(sfc.nf_types):
            name = get_nf(type_id).name
            nfs.append(LogicalNF(nf_name=name, rules=self.rule_factory(sfc, j, name)))
        return LogicalSFC(tenant_id=sfc.tenant_id, nfs=tuple(nfs))

    def _ensure_physical(self, prev_physical, created: list[tuple[int, str]]) -> None:
        """Install on the data plane any physical NF the control plane just
        added (``state.physical`` vs. the pre-event snapshot), recording the
        creations so a failed event can undo exactly them."""
        assert self.pipeline is not None
        for i in range(self.base.num_types):
            for s in range(self.base.switch.stages):
                if not self.state.physical[i, s] or prev_physical[i, s]:
                    continue
                name = physical_table_name(get_nf(i + 1).name, s)
                stage = self.pipeline.stage(s)
                try:
                    stage.table(name)
                    continue  # already present (e.g. left over by a reconfig)
                except DataPlaneError:
                    pass
                install_physical_nf(self.pipeline, i + 1, s)
                created.append((s, name))

    def _undo_physical(self, created: list[tuple[int, str]]) -> None:
        assert self.pipeline is not None
        for s, name in reversed(created):
            self.pipeline.stage(s).remove_table(name)

    def _sweep_stale_tables(self, keep_physical) -> None:
        """Remove data-plane physical tables that the adopted layout no
        longer uses *and* that hold no rules, returning their SRAM blocks.
        Only meaningful during reconfiguration — the paper's "reboot"
        moment; in steady state physical NFs are static."""
        assert self.pipeline is not None
        for i in range(self.base.num_types):
            nf_name = get_nf(i + 1).name
            for s in range(self.base.switch.stages):
                if keep_physical[i, s]:
                    continue
                name = physical_table_name(nf_name, s)
                stage = self.pipeline.stage(s)
                try:
                    table = stage.table(name)
                except DataPlaneError:
                    continue
                if table.num_entries == 0:
                    stage.remove_table(name)

    # ------------------------------------------------------------------
    # Lifecycle operations
    # ------------------------------------------------------------------
    def _run(
        self, op: str, tenant_id: int, body: Callable[[Timer], OpResult], data: dict
    ) -> OpResult:
        """The op wrapper the three lifecycle methods share: span + timer
        → ``body(timer)`` → flight-record → journal (``data`` is what
        replay needs besides the tenant to re-drive the op)."""
        with maybe_span(
            self.tracer, f"controller.{op}", switch=self.name, tenant=tenant_id
        ) as span, self.metrics.timer(f"op_latency_s.{op}") as timer:
            result = body(timer)
            span.set(ok=result.ok, reason=result.reason)
            if op == "modify":
                span.set(hitless=result.hitless)
        self._record_op(result)
        self._commit_durable(op, result, data)
        return result

    def _commit_chain(
        self, sfc: SFC, snap, old: TenantRecord | None, no_fit: str, timer: Timer
    ) -> OpResult:
        """The tail admit and modify share: screen ``sfc`` against the
        other live tenants, place it on the residual resources, install
        (admit) or make-before-break replace (modify, ``old`` = the record
        being swapped out) its rules, then book the tenant.  Any refusal
        restores the control plane to ``snap`` — the pre-event snapshot —
        removes the physical NFs created on the way and returns the
        rejection (``no_fit`` is its detail when placement fails)."""
        tenant_id = sfc.tenant_id
        op = "admit" if old is None else "modify"
        with maybe_span(self.tracer, "controller.admission", tenant=tenant_id) as sp:
            decision = check_admission(sfc, self.state)
            sp.set(ok=bool(decision))
        if not decision:
            self.state.restore(snap)
            return self._reject(
                tenant_id, op, decision.reason, decision.detail, timer
            )
        with maybe_span(self.tracer, "controller.placement", tenant=tenant_id) as sp:
            stages = try_place_chain(self.state, sfc, self.base.virtual_stages)
            sp.set(placed=stages is not None)
        if stages is None:
            self.state.restore(snap)
            return self._reject(
                tenant_id, op, "no-feasible-placement", no_fit, timer
            )

        hitless = True
        if self.with_dataplane:
            assert self.installer is not None
            install = (
                self.installer.install if old is None else self.installer.replace
            )
            created: list[tuple[int, str]] = []
            try:
                self._ensure_physical(snap.physical, created)
                hitless = install(self._logical(sfc), stages).hitless
            except DataPlaneError as exc:
                self._undo_physical(created)
                self.state.restore(snap)
                self.metrics.inc("installs_rolled_back")
                return self._reject(
                    tenant_id, op, "dataplane-rejected", str(exc), timer
                )

        self._book(tenant_id, TenantRecord(sfc=sfc, stages=stages))
        added = sfc.total_rules
        deleted = 0
        self.metrics.inc("admitted" if old is None else "modified")
        self.metrics.inc("rules_inserted", added)
        if old is not None:
            deleted = old.sfc.total_rules
            self.metrics.inc("rules_deleted", deleted)
        if not hitless:
            self.metrics.inc("updates_break_before_make")
        self._refresh_gauges()
        return OpResult(
            ok=True,
            tenant_id=tenant_id,
            op=op,
            stages=stages,
            hitless=hitless,
            rules_added=added,
            rules_deleted=deleted,
            latency_s=timer.elapsed_s,
        )

    def admit(self, sfc: SFC) -> OpResult:
        """Admit one tenant chain: admission screen, placement against the
        residual resources, then the two-phase data-plane install.  Any
        data-plane rejection rolls the control plane back to its pre-event
        snapshot."""
        return self._run(
            "admit", sfc.tenant_id, partial(self._admit, sfc),
            {"sfc": sfc.to_dict()},
        )

    def _admit(self, sfc: SFC, timer: Timer) -> OpResult:
        if sfc.tenant_id in self.tenants:
            duplicate = _duplicate(sfc.tenant_id)
            return self._reject(
                sfc.tenant_id, "admit", duplicate.reason, duplicate.detail, timer
            )
        return self._commit_chain(
            sfc, self.state.snapshot(), None,
            "admission passed but no placement fits the residual resources",
            timer,
        )

    # ------------------------------------------------------------------
    def evict(self, tenant_id: int) -> OpResult:
        """Tenant departure: release control-plane resources, then detach
        and garbage-collect the data-plane rules (two-phase)."""
        return self._run("evict", tenant_id, partial(self._evict, tenant_id), {})

    def _evict(self, tenant_id: int, timer: Timer) -> OpResult:
        record = self._book(tenant_id, None)
        if record is None:
            return self._reject(
                tenant_id, "evict", "unknown-tenant",
                f"tenant {tenant_id} has no live chain", timer,
            )
        self._release(record)
        if self.with_dataplane:
            assert self.installer is not None
            self.installer.evict(tenant_id)
        deleted = record.sfc.total_rules
        self.metrics.inc("evicted")
        self.metrics.inc("rules_deleted", deleted)
        self._refresh_gauges()
        return OpResult(
            ok=True,
            tenant_id=tenant_id,
            op="evict",
            rules_deleted=deleted,
            latency_s=timer.elapsed_s,
        )

    # ------------------------------------------------------------------
    def modify(self, tenant_id: int, new_chain: SFC) -> OpResult:
        """Swap a live tenant's chain for ``new_chain`` (same tenant ID).

        Control plane: the old chain's resources are released, the new chain
        is screened and placed against the residual; any failure restores
        the pre-event snapshot and the old chain stays live.  Data plane:
        make-before-break via :meth:`TransactionalInstaller.replace`
        (``hitless=False`` on the result when it had to degrade)."""
        return self._run(
            "modify", tenant_id, partial(self._modify, tenant_id, new_chain),
            {"sfc": new_chain.to_dict()},
        )

    def _modify(self, tenant_id: int, new_chain: SFC, timer: Timer) -> OpResult:
        record = self.tenants.get(tenant_id)
        if record is None:
            return self._reject(
                tenant_id, "modify", "unknown-tenant",
                f"tenant {tenant_id} has no live chain", timer,
            )
        new_sfc = replace(new_chain, tenant_id=tenant_id)
        snap = self.state.snapshot()
        self._release(record)
        return self._commit_chain(
            new_sfc, snap, record,
            "new chain does not fit the residual resources", timer,
        )

    # ------------------------------------------------------------------
    # Batch conveniences
    # ------------------------------------------------------------------
    def admit_many(self, sfcs: Iterable[SFC]) -> list[OpResult]:
        """Admit a batch best-Equation-(13)-metric first — the same order as
        the greedy solver, so a batch admit over an empty controller matches
        :func:`~repro.core.greedy.greedy_place` chain for chain."""
        ordered = sorted(
            sfcs,
            key=lambda sfc: (-sfc_metric(sfc), -sfc.bandwidth_gbps, sfc.tenant_id),
        )
        return [self.admit(sfc) for sfc in ordered]

    def install_catalog(self) -> None:
        """Install any catalog NF type still absent from the pipeline
        (constraint (4)), mirroring the greedy solver's post-placement step,
        and mirror the new physical tables onto the data plane."""
        prev = self.state.physical.copy()
        _ensure_all_types(self.state)
        if self.with_dataplane:
            created: list[tuple[int, str]] = []
            self._ensure_physical(prev, created)
        if self.durability is not None:
            self.durability.commit_op(
                self, "catalog", {"digest": self.state.digest()}
            )

    # ------------------------------------------------------------------
    # Checkpoint restore
    # ------------------------------------------------------------------
    def restore_tenant(self, sfc: SFC, stages: tuple[int, ...]) -> None:
        """Re-install a tenant at its *recorded* stages — the checkpoint
        restore path.  Admission and placement are bypassed on purpose: a
        tenant's historical stages depend on the full arrival/departure
        history, so re-placing survivors would not reproduce them.  The
        restore is not journaled (it reconstructs already-journaled state).
        """
        if sfc.tenant_id in self.tenants:
            raise DurabilityError(
                f"tenant {sfc.tenant_id} already live; restore_tenant is a "
                f"fresh-state operation"
            )
        stages = tuple(int(k) for k in stages)
        if len(stages) != sfc.length:
            raise DurabilityError(
                f"tenant {sfc.tenant_id}: {sfc.length} NFs but "
                f"{len(stages)} recorded stages"
            )
        prev_physical = self.state.physical.copy()
        record = TenantRecord(sfc=sfc, stages=stages)
        S = self.base.switch.stages
        for j, k in enumerate(stages):
            self.state.add_logical_nf(
                sfc.nf_types[j] - 1, (k - 1) % S, sfc.rules[j]
            )
        self.state.add_backplane(record.backplane_bps(S))
        if self.with_dataplane:
            assert self.installer is not None
            created: list[tuple[int, str]] = []
            self._ensure_physical(prev_physical, created)
            self.installer.install(self._logical(sfc), stages)
        self._book(sfc.tenant_id, record)
        self._refresh_gauges()

    # ------------------------------------------------------------------
    # Drift-bounded reconfiguration
    # ------------------------------------------------------------------
    def maybe_reconfigure(self) -> bool:
        """Adopt a fresh reference placement when incremental churn has
        fragmented the pipeline badly enough.

        Every live tenant is placed, so (unlike the candidate-pool updater
        of §V-E) the objective cannot drift — what drifts is the *cost* of
        hosting the same tenants: chains folded onto late virtual stages
        burn extra recirculation passes.  The drift gap is therefore the
        fraction of backplane bandwidth a from-scratch greedy solve over the
        surviving population would reclaim; past the configured threshold
        the controller adopts the reference wholesale (data plane:
        make-before-break replace per tenant — extensive rule churn, counted
        as such).  A reference that fails to place every live tenant is
        never adopted.  Adoption doubles as the paper's "reboot" moment on
        the data plane: physical tables the new layout abandons are swept
        once empty (occupied ones cannot be reclaimed without dropping a
        tenant and stay installed).
        """
        if self.reconfigure_threshold is None or not self.tenants:
            return False
        population = self.population_instance
        reference = greedy_place(population, require_all_types=False)
        if len(reference.assignments) < len(self.tenants):
            return False  # never drop a live tenant to chase efficiency
        current = self.state.backplane_gbps
        if current <= 0:
            return False
        gap = 1.0 - reference.backplane_gbps / current
        if gap <= self.reconfigure_threshold:
            return False

        survivors = {
            t: TenantRecord(sfc=self.tenants[t].sfc, stages=reference.assignments[idx].stages)
            for idx, t in enumerate(sorted(self.tenants))
        }
        # Every survivor's rules are removed and re-installed.
        churn = sum(record.sfc.total_rules for record in survivors.values())

        if self.with_dataplane:
            assert self.installer is not None
            created: list[tuple[int, str]] = []
            prev = self.state.physical.copy()
            # Reconfiguration is the "reboot" moment: sweep empty tables the
            # new layout abandons so their blocks are available, then mirror
            # the new layout and re-place every survivor make-before-break.
            self._sweep_stale_tables(reference.physical)
            # Adopt the reference layout before mirroring, so _ensure_physical
            # sees the new (type, stage) pairs.
            self.state.physical = reference.physical.copy()
            self._ensure_physical(prev, created)
            for t, record in survivors.items():
                self.installer.replace(self._logical(record.sfc), record.stages)
            self._sweep_stale_tables(reference.physical)

        self.tenants = survivors  # same chains, new stages: objective unchanged
        self.state = PipelineState.from_placement(reference)
        self.metrics.inc("reconfigurations")
        self.metrics.inc("rules_inserted", churn)
        self.metrics.inc("rules_deleted", churn)
        self._refresh_gauges()
        if self.durability is not None:
            self.durability.commit_op(
                self, "reconfigure", {"digest": self.state.digest()}
            )
        return True
