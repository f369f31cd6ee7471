"""Transactional rule installation with hitless two-phase updates.

The mechanism that makes controller updates *hitless* is one level of
indirection on the tenant ID.  A ``tenant_map`` table sits at the very front
of stage 0 and rewrites each packet's tenant ID to an epoch-qualified **wire
ID** (action ``set_tenant``); every virtualized rule of that tenant's chain
is installed under the wire ID, not the raw tenant ID.  Because the rewrite
happens on pass 1 and the field persists across recirculation, the single
map entry is the *only* coupling point between a tenant's traffic and a rule
generation:

* **install** — phase 1 writes the chain's rules under a fresh wire ID (they
  are inert: no packet carries that ID yet); phase 2 inserts the map entry.
* **evict** — phase 1 deletes the map entry (traffic detaches); phase 2
  deletes the now-unreachable rules.
* **replace** (make-before-break) — phase 1 installs the *new* generation
  under a second wire ID; phase 2 atomically MODIFYs the map entry to point
  at it; phase 3 deletes the old generation.  A packet anywhere in a
  concurrent batch matches either the complete old chain or the complete new
  chain — never a mix — because it observed exactly one value of the map.

Every phase is one atomic :class:`~repro.dataplane.runtime_api.RuntimeAPI`
batch, and the optional :attr:`TransactionalInstaller.on_batch` hook fires
between phases — the test harness uses it to interleave ``process_batch``
calls and assert the no-mixed-generation property.

When make-before-break cannot fit the transient double occupancy, the
installer falls back to break-before-make (tear down old, then install new),
restoring the old generation if even that fails; callers can observe the
downgrade through the returned ``hitless`` flag.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.dataplane.lookup_index import MatchField, MatchKind
from repro.dataplane.pipeline import SwitchPipeline
from repro.dataplane.runtime_api import OpType, RuntimeAPI, WriteOp, WriteResult
from repro.dataplane.table import MatchActionTable, TableEntry
from repro.dataplane.virtualization import CompiledNF, LogicalSFC, compile_sfc
from repro.errors import DataPlaneError
from repro.telemetry.spans import Tracer, maybe_span

#: Wire IDs live far above any raw tenant ID (VLAN IDs < 2^12; workload
#: tenant indices are small), so the two namespaces cannot collide.
WIRE_BASE = 1 << 20

#: The indirection table's name (resident on physical stage 0).
TENANT_MAP = "tenant_map@s0"


@dataclass
class InstalledTenant:
    """Live bookkeeping for one tenant's active rule generation."""

    tenant_id: int
    wire_id: int
    assignment: tuple[int, ...]
    compiled: tuple[CompiledNF, ...]
    map_entry: TableEntry


@dataclass
class InstallOutcome:
    """What an installer operation did: batches applied and the hitless bit
    (``False`` only when a replace degraded to break-before-make)."""

    rules_inserted: int = 0
    rules_deleted: int = 0
    hitless: bool = True


class TransactionalInstaller:
    """Owns the tenant-map indirection and applies rule generations as
    atomic two-phase batches over :class:`RuntimeAPI`."""

    def __init__(self, pipeline: SwitchPipeline) -> None:
        self.pipeline = pipeline
        self.api = RuntimeAPI(pipeline)
        self.installed: dict[int, InstalledTenant] = {}
        self._next_wire = WIRE_BASE
        #: Test/observability hook: called as ``on_batch(phase, result)``
        #: after each phase commits, with the pipeline in a consistent state.
        self.on_batch: Callable[[str, WriteResult], None] | None = None
        #: Optional tracer: each operation opens an ``install.<op>`` span
        #: whose children are the per-phase ``runtime.write`` spans (set
        #: :attr:`api` ``.tracer`` to the same tracer to get them).
        self.tracer: Tracer | None = None
        self._install_map_table()

    # ------------------------------------------------------------------
    def _install_map_table(self) -> None:
        """Create the tenant-map table and move it to the front of stage 0,
        so the wire-ID rewrite precedes every physical NF table."""
        stage = self.pipeline.stage(0)
        table = MatchActionTable(
            name=TENANT_MAP,
            key=(
                MatchField("tenant_id", MatchKind.EXACT),
                MatchField("pass_id", MatchKind.EXACT),
            ),
        )
        stage.install_table(table)
        stage.tables.insert(0, stage.tables.pop())
        # The reorder changes the pipeline's table walk after install_table
        # already bumped: bump again so fast-path blocks compiled in between
        # cannot survive with the pre-reorder step order.
        stage._bump_structure()

    def _alloc_wire(self) -> int:
        wire = self._next_wire
        self._next_wire += 1
        return wire

    def _emit(self, phase: str, result: WriteResult) -> None:
        if self.on_batch is not None:
            self.on_batch(phase, result)

    @staticmethod
    def _check(phase: str, result: WriteResult) -> None:
        if not result.ok:
            raise DataPlaneError(f"{phase}: " + "; ".join(result.errors))

    # ------------------------------------------------------------------
    def _compile_generation(
        self, sfc: LogicalSFC, assignment: tuple[int, ...], wire_id: int
    ) -> tuple[CompiledNF, ...]:
        """Compile the chain with the wire ID substituted for the tenant ID,
        so every installed rule matches the indirected namespace."""
        wired = LogicalSFC(tenant_id=wire_id, nfs=sfc.nfs)
        return compile_sfc(
            wired, assignment, self.pipeline.num_stages, self.pipeline.max_passes
        )

    @staticmethod
    def _rule_ops(op: OpType, compiled: tuple[CompiledNF, ...]) -> list[WriteOp]:
        return [
            WriteOp(op, nf.table_name, entry)
            for nf in compiled
            for entry in nf.entries
        ]

    def _map_entry(self, tenant_id: int, wire_id: int) -> TableEntry:
        if tenant_id >= WIRE_BASE:
            raise DataPlaneError(
                f"tenant id {tenant_id} collides with the wire-ID namespace "
                f"(>= {WIRE_BASE})"
            )
        return TableEntry(
            match={"tenant_id": tenant_id, "pass_id": 1},
            action="set_tenant",
            params={"wire_id": wire_id},
        )

    # ------------------------------------------------------------------
    def install(
        self, sfc: LogicalSFC, assignment: tuple[int, ...]
    ) -> InstallOutcome:
        """Admit a tenant: write its rules under a fresh wire ID (phase 1,
        inert), then attach traffic with one map-entry insert (phase 2)."""
        with maybe_span(
            self.tracer, "install.install", tenant=sfc.tenant_id
        ) as span:
            outcome = self._install(sfc, assignment)
            span.set(rules_inserted=outcome.rules_inserted)
            return outcome

    def _install(
        self, sfc: LogicalSFC, assignment: tuple[int, ...]
    ) -> InstallOutcome:
        if sfc.tenant_id in self.installed:
            raise DataPlaneError(f"tenant {sfc.tenant_id} already installed")
        wire = self._alloc_wire()
        compiled = self._compile_generation(sfc, assignment, wire)
        rules = self._rule_ops(OpType.INSERT, compiled)

        result = self.api.write(rules)
        self._check("install:rules", result)
        self._emit("install:rules", result)

        map_entry = self._map_entry(sfc.tenant_id, wire)
        attach = self.api.write([WriteOp(OpType.INSERT, TENANT_MAP, map_entry)])
        if not attach.ok:
            # Detach never happened; the rules are unreachable — remove them
            # so the failed install leaves no residue.
            self.api.write(self._rule_ops(OpType.DELETE, compiled))
            self._check("install:attach", attach)
        self._emit("install:attach", attach)

        self.installed[sfc.tenant_id] = InstalledTenant(
            tenant_id=sfc.tenant_id,
            wire_id=wire,
            assignment=tuple(assignment),
            compiled=compiled,
            map_entry=map_entry,
        )
        return InstallOutcome(rules_inserted=len(rules))

    # ------------------------------------------------------------------
    def evict(self, tenant_id: int) -> InstallOutcome:
        """Tenant departure: detach traffic first (phase 1, one map delete),
        then garbage-collect the unreachable rules (phase 2)."""
        with maybe_span(self.tracer, "install.evict", tenant=tenant_id) as span:
            outcome = self._evict(tenant_id)
            span.set(rules_deleted=outcome.rules_deleted)
            return outcome

    def _evict(self, tenant_id: int) -> InstallOutcome:
        record = self.installed.pop(tenant_id, None)
        if record is None:
            raise DataPlaneError(f"tenant {tenant_id} has no installed chain")

        detach = self.api.write(
            [WriteOp(OpType.DELETE, TENANT_MAP, record.map_entry)]
        )
        self._check("evict:detach", detach)
        self._emit("evict:detach", detach)

        rules = self._rule_ops(OpType.DELETE, record.compiled)
        result = self.api.write(rules)
        self._check("evict:rules", result)
        self._emit("evict:rules", result)
        return InstallOutcome(rules_deleted=len(rules))

    # ------------------------------------------------------------------
    def replace(
        self, sfc: LogicalSFC, assignment: tuple[int, ...]
    ) -> InstallOutcome:
        """Swap a tenant's chain for a new generation, make-before-break:
        install the new rules under a second wire ID, flip the map entry
        atomically, delete the old generation.  Falls back to
        break-before-make when the transient double occupancy does not fit
        (``hitless=False`` on the outcome)."""
        with maybe_span(
            self.tracer, "install.replace", tenant=sfc.tenant_id
        ) as span:
            outcome = self._replace(sfc, assignment)
            span.set(hitless=outcome.hitless)
            return outcome

    def _replace(
        self, sfc: LogicalSFC, assignment: tuple[int, ...]
    ) -> InstallOutcome:
        record = self.installed.get(sfc.tenant_id)
        if record is None:
            raise DataPlaneError(f"tenant {sfc.tenant_id} has no installed chain")
        wire = self._alloc_wire()
        compiled = self._compile_generation(sfc, assignment, wire)
        new_rules = self._rule_ops(OpType.INSERT, compiled)

        made = self.api.write(new_rules)
        if not made.ok:
            return self._replace_break_before_make(record, sfc, assignment)
        self._emit("replace:make", made)

        new_map = self._map_entry(sfc.tenant_id, wire)
        flip = self.api.write(
            [
                WriteOp(
                    OpType.MODIFY, TENANT_MAP, record.map_entry, replacement=new_map
                )
            ]
        )
        if not flip.ok:
            self.api.write(self._rule_ops(OpType.DELETE, compiled))
            self._check("replace:flip", flip)
        self._emit("replace:flip", flip)

        old_rules = self._rule_ops(OpType.DELETE, record.compiled)
        swept = self.api.write(old_rules)
        self._check("replace:break", swept)
        self._emit("replace:break", swept)

        self.installed[sfc.tenant_id] = InstalledTenant(
            tenant_id=sfc.tenant_id,
            wire_id=wire,
            assignment=tuple(assignment),
            compiled=compiled,
            map_entry=new_map,
        )
        return InstallOutcome(
            rules_inserted=len(new_rules), rules_deleted=len(old_rules)
        )

    def _replace_break_before_make(
        self,
        record: InstalledTenant,
        sfc: LogicalSFC,
        assignment: tuple[int, ...],
    ) -> InstallOutcome:
        """Degraded replace: tear the old generation down to make room, then
        install the new one.  Not hitless (traffic is detached in between);
        if the new generation still does not fit, the old one is restored
        and the failure propagates."""
        self.evict(sfc.tenant_id)
        try:
            outcome = self.install(sfc, assignment)
        except DataPlaneError:
            # Restore the previous generation (its resources were just
            # freed, so this cannot fail for space) and surface the error.
            restored = self.api.write(
                self._rule_ops(OpType.INSERT, record.compiled)
                + [WriteOp(OpType.INSERT, TENANT_MAP, record.map_entry)]
            )
            self._check("replace:restore", restored)
            self._emit("replace:restore", restored)
            self.installed[record.tenant_id] = record
            raise
        outcome.rules_deleted = len(
            [e for nf in record.compiled for e in nf.entries]
        )
        outcome.hitless = False
        return outcome
