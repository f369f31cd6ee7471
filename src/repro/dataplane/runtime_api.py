"""A P4Runtime-style control API over the pipeline.

The control plane talks to the switch through batched write requests of
INSERT / MODIFY / DELETE operations on named tables, mirroring the
P4Runtime ``Write(WriteRequest)`` RPC.  Batches are atomic: if any operation
fails validation or resources, the whole batch is rolled back — which is
what lets the runtime-update engine (§V-E) swap tenant rule sets safely.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.dataplane.pipeline import SwitchPipeline
from repro.dataplane.table import TableEntry
from repro.errors import DataPlaneError, ResourceExhaustedError
from repro.telemetry.spans import Tracer


class OpType(enum.Enum):
    INSERT = "insert"
    MODIFY = "modify"
    DELETE = "delete"


@dataclass(frozen=True)
class WriteOp:
    """One table operation inside a batch."""

    op: OpType
    table: str
    entry: TableEntry
    #: For MODIFY: the replacement entry (same match, new action/params).
    replacement: TableEntry | None = None


@dataclass
class WriteResult:
    """Outcome of a batch write."""

    applied: int = 0
    errors: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors


class RuntimeAPI:
    """Batched entry CRUD with rollback, plus simple read RPCs."""

    def __init__(self, pipeline: SwitchPipeline) -> None:
        self.pipeline = pipeline
        self.writes_total = 0
        self.batches_total = 0
        #: Optional control-plane tracer: every :meth:`write` batch becomes
        #: a ``runtime.write`` span (child of the caller's open span).
        self.tracer: Tracer | None = None

    # -- reads ------------------------------------------------------------
    def read_entries(self, table_name: str) -> list[TableEntry]:
        """All entries currently installed in ``table_name`` (Read RPC)."""
        _stage, table = self.pipeline.find_table(table_name)
        return list(table.entries)  # type: ignore[attr-defined]

    # -- writes ------------------------------------------------------------
    def _apply_one(self, op: WriteOp) -> None:
        """Apply one op (no rollback bookkeeping: :meth:`write` restores
        whole-table snapshots on failure)."""
        stage, table = self.pipeline.find_table(op.table)
        if op.op is OpType.INSERT:
            stage.resources.charge_entries(op.table, 1)
            table.insert(op.entry)  # type: ignore[attr-defined]
            return
        if op.op is OpType.DELETE:
            table.delete(op.entry)  # type: ignore[attr-defined]
            stage.resources.refund_entries(op.table, 1)
            return
        if op.op is OpType.MODIFY:
            if op.replacement is None:
                raise DataPlaneError("MODIFY needs a replacement entry")
            table.delete(op.entry)  # type: ignore[attr-defined]
            table.insert(op.replacement)  # type: ignore[attr-defined]
            return
        raise DataPlaneError(f"unhandled op {op.op}")  # pragma: no cover

    def write(self, ops: list[WriteOp]) -> WriteResult:
        """Apply a batch atomically; on any failure undo what was applied
        and report the error.

        Rollback restores per-table *snapshots* rather than replaying
        inverse ops: re-inserting a deleted entry would append it at the
        end of the table, silently changing insertion-order tie-breaks
        between equal-priority overlapping entries.  The snapshot restore
        rebuilds each touched table (and its lookup index) exactly as it
        was before the batch, resource reservations included.

        With a :attr:`tracer` attached each batch is timed as a
        ``runtime.write`` span annotated with op and applied counts.
        """
        if self.tracer is None:
            return self._write(ops)
        with self.tracer.span(
            "runtime.write", switch=self.pipeline.name, ops=len(ops)
        ) as span:
            result = self._write(ops)
            span.set(applied=result.applied, ok=result.ok)
            return result

    def _write(self, ops: list[WriteOp]) -> WriteResult:
        """The untraced batch application :meth:`write` wraps."""
        result = WriteResult()
        self.batches_total += 1
        #: table name -> (stage, table, entries snapshot, reservation state,
        #: pre-batch generation), captured on first touch.
        touched: dict[str, tuple] = {}
        #: table name -> entries written (insert/delete targets and MODIFY
        #: replacements), reported to an attached fast-path engine so it
        #: can drop what it cached for the tenants they name.
        written: dict[str, list[TableEntry]] = {}
        for op in ops:
            try:
                if op.table not in touched:
                    stage, table = self.pipeline.find_table(op.table)
                    touched[op.table] = (
                        stage,
                        table,
                        table.snapshot(),  # type: ignore[attr-defined]
                        stage.resources.reservation_state(op.table),
                        table.generation,  # type: ignore[attr-defined]
                    )
                self._apply_one(op)
            except (DataPlaneError, ResourceExhaustedError) as exc:
                result.errors.append(f"{op.op.value} {op.table}: {exc}")
                # The restore keeps the generation of every partition the
                # batch did not write: the fast path recompiles only the
                # tenants it named.
                for name, (stage, table, entries, reservation, since) in touched.items():
                    table.restore(entries, since)  # type: ignore[attr-defined]
                    stage.resources.restore_reservation_state(name, reservation)
                result.applied = 0
                return result
            batch = written.setdefault(op.table, [])
            batch.append(op.entry)
            if op.replacement is not None:
                batch.append(op.replacement)
            result.applied += 1
            self.writes_total += 1
        engine = getattr(self.pipeline, "fastpath", None)
        if engine is not None:
            for name, entries in written.items():
                engine.notify_write(touched[name][1], entries)
        return result

    # -- conveniences ------------------------------------------------------
    def insert(self, table: str, entry: TableEntry) -> WriteResult:
        """Single-op INSERT batch."""
        return self.write([WriteOp(OpType.INSERT, table, entry)])

    def delete(self, table: str, entry: TableEntry) -> WriteResult:
        """Single-op DELETE batch."""
        return self.write([WriteOp(OpType.DELETE, table, entry)])

    def modify(self, table: str, entry: TableEntry, replacement: TableEntry) -> WriteResult:
        """Single-op MODIFY batch (same match, new action/params)."""
        return self.write([WriteOp(OpType.MODIFY, table, entry, replacement=replacement)])
