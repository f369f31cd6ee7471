"""SFC virtualization: folding logical chains onto the physical pipeline.

This is the paper's §IV data-plane mechanism:

* physical NFs are static tables whose match key is prepended with
  ``tenant_id`` and ``pass_id``;
* installing a tenant's logical NF copies its rules into the physical table
  of the same type, with the tenant's ID and the assigned pass added to
  every rule's match;
* when a chain folds across passes, every rule of the **last NF of each
  non-final pass** gets the REC argument, so matching traffic recirculates
  and re-enters the pipeline with ``pass_id + 1``;
* tenant departure deletes all rules carrying that tenant ID and refunds
  the SRAM entries.

Two allocation paths are provided: :meth:`SFCVirtualizer.install_sfc` with an
explicit virtual-stage assignment (output of the control plane's placement
algorithms) and :meth:`SFCVirtualizer.allocate` implementing §IV's own
``currPass`` first-fit walk for control-plane-less operation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dataplane.pipeline import SwitchPipeline
from repro.dataplane.table import MatchActionTable, TableEntry
from repro.errors import DataPlaneError, ResourceExhaustedError


def physical_table_name(nf_name: str, stage: int) -> str:
    """Naming convention binding an NF type to its per-stage physical table."""
    return f"{nf_name}@s{stage}"


@dataclass(frozen=True)
class LogicalNF:
    """One NF of a tenant's chain: the type name plus its configuration
    (rules *without* tenant/pass fields — the virtualizer adds those)."""

    nf_name: str
    rules: tuple[TableEntry, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))


@dataclass(frozen=True)
class LogicalSFC:
    """A tenant's chain as the data plane sees it."""

    tenant_id: int
    nfs: tuple[LogicalNF, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "nfs", tuple(self.nfs))
        if not self.nfs:
            raise DataPlaneError("an SFC needs at least one NF")


@dataclass
class InstalledRule:
    """Bookkeeping for one installed (augmented) rule."""

    stage_index: int
    table_name: str
    entry: TableEntry


@dataclass(frozen=True)
class CompiledNF:
    """One chain position compiled against its physical table: where the
    rules go and the fully augmented entries (tenant/pass match fields and
    the REC argument already applied)."""

    position: int
    stage_index: int
    pass_id: int
    table_name: str
    entries: tuple[TableEntry, ...]


def compile_sfc(
    sfc: LogicalSFC,
    assignment: tuple[int, ...],
    num_stages: int,
    max_passes: int,
) -> tuple[CompiledNF, ...]:
    """Compile a chain onto the physical pipeline *without installing it*.

    This is the pure half of §IV's install: validate the virtual-stage
    assignment, augment every rule's match with ``(tenant_id, pass_id)``,
    and attach the REC argument to the rules of the last NF of each
    non-final pass.  Both :meth:`SFCVirtualizer.install_sfc` and the
    controller's transactional installer consume the same compilation, so
    the rule format cannot drift between the two install paths.
    """
    if len(assignment) != len(sfc.nfs):
        raise DataPlaneError(
            f"assignment length {len(assignment)} != chain length {len(sfc.nfs)}"
        )
    if any(b <= a for a, b in zip(assignment, assignment[1:])):
        raise DataPlaneError(f"assignment {assignment} is not strictly increasing")
    if any(k < 1 for k in assignment):
        raise DataPlaneError(f"assignment {assignment} has stages < 1 (1-based)")
    total_passes = -(-assignment[-1] // num_stages)
    if total_passes > max_passes:
        raise ResourceExhaustedError(
            f"assignment needs {total_passes} passes, pipeline allows {max_passes}"
        )

    # Which chain positions are the last NF of a non-final pass? Those
    # rules carry REC.
    rec_positions = set()
    for j, k in enumerate(assignment):
        this_pass = -(-k // num_stages)
        next_pass = (
            -(-assignment[j + 1] // num_stages) if j + 1 < len(assignment) else this_pass
        )
        if next_pass > this_pass:
            rec_positions.add(j)

    compiled = []
    for j, (nf, k) in enumerate(zip(sfc.nfs, assignment)):
        stage_index = (k - 1) % num_stages
        pass_id = -(-k // num_stages)
        tag = {"tenant_id": sfc.tenant_id, "pass_id": pass_id}
        rec = {"rec": True} if j in rec_positions else {}
        augmented = tuple(
            TableEntry(
                match={**rule.match, **tag},
                action=rule.action,
                params={**rule.params, **rec},
                priority=rule.priority,
            )
            for rule in nf.rules
        )
        compiled.append(
            CompiledNF(
                position=j,
                stage_index=stage_index,
                pass_id=pass_id,
                table_name=physical_table_name(nf.nf_name, stage_index),
                entries=augmented,
            )
        )
    return tuple(compiled)


@dataclass
class InstalledSFC:
    """Everything needed to tear a tenant's chain back down."""

    sfc: LogicalSFC
    #: 1-based virtual stage per chain position.
    assignment: tuple[int, ...]
    rules: list[InstalledRule] = field(default_factory=list)

    @property
    def passes(self) -> int:
        return 0 if not self.assignment else -(-max(self.assignment) // self._stages)

    _stages: int = 1  # set by the virtualizer


class SFCVirtualizer:
    """Installs/uninstalls logical SFCs onto a pipeline's physical NFs."""

    def __init__(self, pipeline: SwitchPipeline) -> None:
        self.pipeline = pipeline
        self.installed: dict[int, InstalledSFC] = {}

    # ------------------------------------------------------------------
    def _physical_table(self, nf_name: str, stage: int) -> MatchActionTable:
        name = physical_table_name(nf_name, stage)
        return self.pipeline.stage(stage).table(name)

    def _has_physical(self, nf_name: str, stage: int) -> bool:
        try:
            self._physical_table(nf_name, stage)
            return True
        except DataPlaneError:
            return False

    # ------------------------------------------------------------------
    def plan_allocation(self, sfc: LogicalSFC) -> tuple[int, ...]:
        """§IV's ``currPass`` walk: sequentially match chain NFs against the
        physical pipeline, folding into the next pass when the remaining
        stages lack the needed type.  Returns 1-based virtual stages.

        Raises :class:`ResourceExhaustedError` when the chain cannot finish
        within the pipeline's recirculation budget.
        """
        S = self.pipeline.num_stages
        max_k = S * self.pipeline.max_passes
        assignment: list[int] = []
        k = 0  # last used virtual stage
        for nf in sfc.nfs:
            found = None
            for candidate in range(k + 1, max_k + 1):
                if self._has_physical(nf.nf_name, (candidate - 1) % S):
                    found = candidate
                    break
            if found is None:
                raise ResourceExhaustedError(
                    f"tenant {sfc.tenant_id}: NF {nf.nf_name!r} cannot be "
                    f"reached within {self.pipeline.max_passes} passes"
                )
            assignment.append(found)
            k = found
        return tuple(assignment)

    # ------------------------------------------------------------------
    def install_sfc(
        self, sfc: LogicalSFC, assignment: tuple[int, ...] | None = None
    ) -> InstalledSFC:
        """Copy the chain's rules into the physical tables.

        ``assignment`` gives the 1-based virtual stage per NF (from the
        control plane); omitted, the §IV first-fit walk decides.  The install
        is atomic: on any failure every already-copied rule is rolled back.
        """
        if sfc.tenant_id in self.installed:
            raise DataPlaneError(f"tenant {sfc.tenant_id} already has an SFC installed")
        if assignment is None:
            assignment = self.plan_allocation(sfc)
        S = self.pipeline.num_stages
        compiled = compile_sfc(
            sfc, tuple(assignment), S, self.pipeline.max_passes
        )

        record = InstalledSFC(sfc=sfc, assignment=tuple(assignment))
        record._stages = S
        try:
            for nf in compiled:
                table = self.pipeline.stage(nf.stage_index).table(nf.table_name)
                stage = self.pipeline.stage(nf.stage_index)
                stage.resources.charge_entries(table.name, len(nf.entries))
                try:
                    # Atomic per NF: a rejected batch leaves the table (and
                    # its lookup index) untouched, so only the charge above
                    # needs undoing here.
                    table.insert_many(nf.entries)
                except (DataPlaneError, ResourceExhaustedError):
                    stage.resources.refund_entries(table.name, len(nf.entries))
                    raise
                for entry in nf.entries:
                    record.rules.append(
                        InstalledRule(
                            stage_index=nf.stage_index,
                            table_name=nf.table_name,
                            entry=entry,
                        )
                    )
        except (DataPlaneError, ResourceExhaustedError):
            self._rollback(record)
            raise
        self.installed[sfc.tenant_id] = record
        return record

    def _rollback(self, record: InstalledSFC) -> None:
        refunds: dict[tuple[int, str], int] = {}
        for rule in record.rules:
            stage = self.pipeline.stage(rule.stage_index)
            stage.table(rule.table_name).delete(rule.entry)
            key = (rule.stage_index, rule.table_name)
            refunds[key] = refunds.get(key, 0) + 1
        for (stage_index, table_name), count in refunds.items():
            self.pipeline.stage(stage_index).resources.refund_entries(table_name, count)
        record.rules.clear()

    # ------------------------------------------------------------------
    def uninstall_sfc(self, tenant_id: int) -> LogicalSFC:
        """Tenant departure: remove every rule carrying its tenant ID and
        refund the SRAM entries."""
        record = self.installed.pop(tenant_id, None)
        if record is None:
            raise DataPlaneError(f"tenant {tenant_id} has no installed SFC")
        self._rollback(record)
        return record.sfc

    def tenant_passes(self, tenant_id: int) -> int:
        """Pipeline passes the tenant's traffic consumes (``R_l + 1``)."""
        record = self.installed.get(tenant_id)
        if record is None:
            raise DataPlaneError(f"tenant {tenant_id} has no installed SFC")
        return record.passes


def install_sfc(
    pipeline: SwitchPipeline,
    sfc: LogicalSFC,
    assignment: tuple[int, ...] | None = None,
) -> InstalledSFC:
    """One-shot convenience wrapper around :class:`SFCVirtualizer`."""
    return SFCVirtualizer(pipeline).install_sfc(sfc, assignment)
