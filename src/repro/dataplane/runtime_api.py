"""A P4Runtime-style control API over the pipeline.

The control plane talks to the switch through batched write requests of
INSERT / MODIFY / DELETE operations on named tables, mirroring the
P4Runtime ``Write(WriteRequest)`` RPC.  Batches are atomic: if any operation
fails validation or resources, the whole batch is rolled back — which is
what lets the runtime-update engine (§V-E) swap tenant rule sets safely.
A batch costs what it carries: each table is resolved once, a run of
inserts into one table is charged once, and rollback replays an undo log of
the applied ops rather than restoring table copies.
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
    """Batched entry CRUD with all-or-nothing rollback."""

    def __init__(self, pipeline: SwitchPipeline) -> None:
        self.pipeline = pipeline
        self.writes_total = 0
        self.batches_total = 0
        #: Optional control-plane tracer: every :meth:`write` batch becomes
        #: a ``runtime.write`` span (child of the caller's open span).
        self.tracer: Tracer | None = None

    def write(self, ops: list[WriteOp]) -> WriteResult:
        """Apply a batch atomically; on any failure undo what was applied
        and report the error.

        Every applied op leaves an undo record in its table
        (:meth:`~repro.dataplane.table.MatchActionTable.undo`): rollback
        removes what was inserted and re-files what was deleted under its
        original order, so rule ids and insertion-order tie-breaks between
        equal-priority overlapping entries come back exactly.  Each touched
        table's resource reservation is captured once and restored too.

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
        #: table name -> (stage, table, reservation state, undo records),
        #: resolved and captured on first touch.
        touched: dict[str, tuple] = {}
        i, n = 0, len(ops)
        try:
            while i < n:
                op = ops[i]
                name = op.table
                state = touched.get(name)
                if state is None:
                    stage, table = self.pipeline.find_table(name)
                    state = touched[name] = (
                        stage, table, stage.resources.reservation_state(name), []
                    )
                stage, table, _reservation, undo = state
                if op.op is OpType.INSERT:
                    # Charge the run of inserts into this table at once: its
                    # charges only grow, so it fails iff its last one would.
                    # If it does, charge op by op to fail at the same op.
                    end = i + 1
                    while end < n and ops[end].op is OpType.INSERT and ops[end].table == name:
                        end += 1
                    try:
                        stage.resources.charge_entries(name, end - i)
                        each = False
                    except ResourceExhaustedError:
                        each = True
                    for op in ops[i:end]:
                        if each:
                            stage.resources.charge_entries(name, 1)
                        undo.append(table.insert(op.entry))
                        result.applied += 1
                    i = end
                    continue
                if op.op is OpType.DELETE:
                    undo.append(table.delete(op.entry))
                    stage.resources.refund_entries(name, 1)
                else:
                    if op.replacement is None:
                        raise DataPlaneError("MODIFY needs a replacement entry")
                    undo.append(table.delete(op.entry))
                    undo.append(table.insert(op.replacement))
                result.applied += 1
                i += 1
        except (DataPlaneError, ResourceExhaustedError) as exc:
            result.errors.append(f"{op.op.value} {op.table}: {exc}")
            for name, (stage, table, reservation, undo) in touched.items():
                table.undo(undo)
                stage.resources.reset_reservation_state(name, reservation)
            self.writes_total += result.applied
            result.applied = 0
            return result
        self.writes_total += result.applied
        engine = getattr(self.pipeline, "fastpath", None)
        if engine is not None:
            # Hand over the partition keys the undo records already carry.
            for _stage, table, _reservation, undo in touched.values():
                engine.notify_write(table, {key for *_record, key in undo})
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
