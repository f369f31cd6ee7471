"""The block compiler: a tenant's partition of a table, lowered to arrays.

The paper's data plane keeps one physical table per NF and copies every
tenant's rules into it behind two more exact match fields, ``(tenant ID,
pass)`` (Fig. 3).  The fast path keeps that layout: ``tenant_id`` and
``pass_id`` are *lane columns that select a rule block*, never properties
of a plan.

* A :class:`Block` is one ``(table, tenant, pass)`` slice: the tenant's
  partition of the table (:meth:`MatchActionTable.partition`, the shared
  partition merged in) restricted to the entries that match that pass, in
  rank order (priority desc, LPM specificity desc, insertion order asc).
  The remaining key fields are lowered to two uniform predicates — masked
  equality ``(v & a) == b`` for exact / ternary / LPM fields, ``a <= v <=
  b`` for range fields — and the actions to per-column write-enable / value
  rows over :data:`COLUMNS`, which holds the header fields *and* egress,
  REC and drop, so applying a winner is one ``np.where``.  Compiling tenant
  *t* reads only *t*'s partitions, whatever else the table holds.
* :func:`compile_chain` is the per-tenant entry point: it compiles the
  blocks of every table for the tenant's raw ID, follows every
  ``set_tenant`` it finds (the controller's ``tenant_map`` rewrite raw ->
  wire ID is an ordinary one-entry block with no predicates left) and
  compiles the blocks of the IDs so reached.  What comes back is the
  *verdict* — compilable, or a ``fallback_reason`` — plus the blocks and
  the generation of every partition read.

Actions are pre-bound (the ``int()`` every action performs per packet
happens here, once) and classified:

* **vector** actions (``no_op``/``permit``/``drop``/``set_tenant``/
  ``set_dscp``/``set_dst``/``snat``/``forward``) become column writes;
* **scalar-safe** actions (``count``/``rate_limit``/``count_extern``) touch
  only per-packet scratch state, externs, drop and REC — never a header
  field — so the kernel calls the *real* registered function per matched
  lane, in lane order;
* anything else (``meter_police`` is genuinely order- and time-dependent
  across packets, and unknown/overridden registrations can do anything)
  makes the chain **uncompilable**: the verdict carries a
  ``fallback_reason`` and the engine routes the tenant's traffic to the
  interpreter.

Invalidation is one layer: a verdict, positive or negative, is current iff
the generations of the partitions it read (and the pipeline's structure)
are unchanged — :meth:`CompiledChain.is_current`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, NamedTuple

import numpy as _np

from repro.dataplane import action as _act
from repro.dataplane.lookup_index import MatchKind, _match_one
from repro.dataplane.pipeline import SwitchPipeline
from repro.dataplane.table import MatchActionTable

#: Vector action -> the ``(column written, param read, required)`` of its
#: header writes (REC, drop and ``egress_set`` are added by
#: :func:`_compile_binding`).
_WRITES = {
    "no_op": (),
    "permit": (),
    "drop": (),
    "set_tenant": (("tenant_id", "wire_id", True),),
    "set_dscp": (("dscp", "dscp", True),),
    "set_dst": (("dst_ip", "dst_ip", True), ("dst_port", "dst_port", False)),
    "snat": (("src_ip", "src_ip", True), ("src_port", "src_port", False)),
    "forward": (("egress_port", "port", True), ("egress_set", "port", True)),
}

#: Actions the kernel applies as columnar writes (semantics reimplemented,
#: guarded by a compile-time identity check against the canonical
#: implementations so overridden registrations fall back).
VECTOR_ACTIONS = frozenset(_WRITES)

#: Actions applied by calling the real registered function per matched
#: packet: they read/write only per-packet scratch, externs, ``dropped``
#: and ``recirculate`` — never a matchable header field — so scalar
#: application order within a step cannot change any other packet's walk.
SCALAR_ACTIONS = frozenset({"count", "rate_limit", "count_extern"})

#: name -> the canonical implementation compiled semantics assume.
_CANONICAL = {
    "no_op": _act.act_no_op,
    "permit": _act.act_permit,
    "drop": _act.act_drop,
    "set_tenant": _act.act_set_tenant,
    "set_dscp": _act.act_set_dscp,
    "set_dst": _act.act_set_dst,
    "snat": _act.act_snat,
    "forward": _act.act_forward,
    "count": _act.act_count,
    "rate_limit": _act.act_rate_limit,
    "count_extern": _act.act_count_extern,
}

#: Header fields held as lane columns (everything a match key may read or a
#: vector action may write, minus the pass the kernel tracks itself).
COLUMN_FIELDS = (
    "tenant_id",
    "src_ip",
    "dst_ip",
    "src_port",
    "dst_port",
    "protocol",
    "dscp",
)
#: The lane-state matrix's columns: the header fields, then what actions
#: set besides them — one layout for the kernel's state and a block's
#: write rows.
COLUMNS = COLUMN_FIELDS + ("egress_port", "egress_set", "rec", "dropped")
_COL = {name: c for c, name in enumerate(COLUMNS)}
_TENANT = _COL["tenant_id"]
_I64 = _np.iinfo(_np.int64)


class Binding(NamedTuple):
    """One pre-compiled action application.

    ``kind`` is ``"vector"`` (columnar: ``writes`` fully describe the
    effect) or ``"scalar"`` (call ``fn`` with the original ``params`` on
    each matched :class:`~repro.dataplane.packet.Packet`).
    """

    action: str
    kind: str
    #: Pre-coerced ``(column_name, int_value)`` writes over :data:`COLUMNS`.
    writes: tuple = ()
    #: Scalar bindings only: the registered function and its raw params.
    fn: object = None
    params: Mapping[str, object] = {}


class Block:
    """One ``(table, tenant, pass)`` rule block, rank-ordered.

    ``preds[r, 0/1, f]`` are the ``(a, b)`` of rank ``r``'s predicate on
    the table's ``f``-th residual key field (:func:`residual_fields`:
    masked-equality fields first, then range fields; a wildcard is ``(0,
    0)`` resp. the full int64 range).  ``wen``/``wval`` are the per-rank
    write-enable / value rows over :data:`COLUMNS`; ``bindings`` keeps the
    pre-bound actions in the same order and ``scalar`` the ranks whose
    binding is a scalar one (those are called, not written).
    """

    __slots__ = ("preds", "wen", "wval", "bindings", "scalar")

    def __init__(self, preds, bindings: tuple[Binding, ...]) -> None:
        self.preds = preds
        self.bindings = bindings
        self.wen, self.wval = action_rows(bindings)
        self.scalar = [r for r, b in enumerate(bindings) if b.kind == "scalar"]

    def __len__(self) -> int:
        return len(self.bindings)


@dataclass(slots=True)
class CompiledChain:
    """The verdict on one tenant's chain, and what it was read from.

    ``blocks`` maps ``(table index, tenant id)`` — the raw ID and every ID
    a ``set_tenant`` can turn it into — to ``{pass: Block}`` (no entry for
    a pass with no rules).  A chain with ``fallback_reason`` set is a
    *negative* verdict: the tenant's traffic must take the interpreter,
    and it holds no blocks.  ``reads`` is ``(table, partition key,
    generation)`` for every partition the walk read, the shared ones
    included: the verdict, either way, is current until one of them moves.
    """

    tenant_id: int
    blocks: dict
    reads: tuple
    structure_gen: int
    max_passes: int
    fallback_reason: str | None = None

    def is_current(self, pipeline: SwitchPipeline) -> bool:
        """The one staleness check (a few int compares per partition read):
        it holds whoever wrote the tables, RuntimeAPI or not."""
        if self.structure_gen != pipeline.structure_generation:
            return False
        if self.max_passes != pipeline.max_passes:
            return False
        for table, key, gen in self.reads:
            if table.partition_generation(key) != gen:
                return False
        return True

    def __repr__(self) -> str:
        status = (
            f"fallback={self.fallback_reason!r}"
            if self.fallback_reason
            else f"blocks={sum(len(b) for b in self.blocks.values())}"
        )
        return f"CompiledChain(tenant={self.tenant_id}, {status})"


class _Uncompilable(Exception):
    """Internal: abort the walk, the chain needs the interpreter."""


def _compile_binding(action: str, params: Mapping[str, object], registry) -> Binding:
    """Pre-bind one ``(action, params)`` pair; raises :class:`_Uncompilable`
    for anything the kernel cannot reproduce exactly."""
    try:
        fn = registry.resolve(action).fn
    except Exception:
        raise _Uncompilable(f"unknown action {action!r}") from None
    if fn is not _CANONICAL.get(action):
        raise _Uncompilable(f"action {action!r} is overridden in the registry")
    if action in SCALAR_ACTIONS:
        return Binding(action, "scalar", fn=fn, params=params)
    if action not in VECTOR_ACTIONS:
        raise _Uncompilable(f"action {action!r} is not batch-safe")
    if action == "drop":  # never honors REC: the flag freezes as it was
        return Binding(action, "vector", (("dropped", 1),))
    try:
        writes = [
            (column, 1 if column == "egress_set" else int(params[name]))
            for column, name, required in _WRITES[action]
            if required or name in params
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise _Uncompilable(f"action {action!r}: bad params ({exc!r})") from None
    if params.get("rec"):
        writes.append(("rec", 1))
    return Binding(action, "vector", tuple(writes))


def action_rows(bindings) -> tuple:
    """``(write-enable, value)`` rows over :data:`COLUMNS`, one per binding
    (a scalar binding's row writes nothing)."""
    wen = _np.zeros((len(bindings), len(COLUMNS)), bool)
    wval = _np.zeros((len(bindings), len(COLUMNS)), _np.int64)
    writes = [(r, w) for r, binding in enumerate(bindings) for w in binding.writes]
    if writes:
        rows = [r for r, _w in writes]
        cols = [_COL[w[0]] for _r, w in writes]
        wen[rows, cols] = True
        wval[rows, cols] = [w[1] for _r, w in writes]
    return wen, wval


def residual_fields(table: MatchActionTable) -> tuple[list, int]:
    """The key fields a block still tests per lane — every one but
    ``tenant_id``/``pass_id``, which select the block — masked-equality
    kinds first; returns ``(fields, how many are masked-equality)``."""
    fields = [f for f in table.key if f.name not in ("tenant_id", "pass_id")]
    masked = [f for f in fields if f.kind is not MatchKind.RANGE]
    return masked + [f for f in fields if f.kind is MatchKind.RANGE], len(masked)


def _lower(kind: MatchKind, specs: list) -> tuple[list, list]:
    """One key field's specs, entry by entry, as the ``a`` and ``b`` of its
    uniform predicate (masked equality, or a range for RANGE fields)."""
    if kind is MatchKind.RANGE:
        return (
            [_I64.min if s is None else int(s[0]) for s in specs],
            [_I64.max if s is None else int(s[1]) for s in specs],
        )
    if kind is MatchKind.EXACT:
        return (
            [0 if s is None else -1 for s in specs],
            [0 if s is None else int(s) for s in specs],
        )
    if kind is MatchKind.LPM:  # (prefix, length) -> (want, mask)
        specs = [
            s if s is None else (s[0], ((1 << int(s[1])) - 1) << (32 - int(s[1])))
            for s in specs
        ]
    return (
        [0 if s is None else int(s[1]) for s in specs],
        [0 if s is None else int(s[0]) & int(s[1]) for s in specs],
    )


def compile_blocks(
    table: MatchActionTable, tenant_id: int, max_passes: int, registry
) -> dict[int, Block]:
    """Lower ``tenant_id``'s partition of ``table`` (shared-partition
    entries merged in by the same rank) to one :class:`Block` per pass that
    has rules.  Reads no other tenant's entries."""
    by_name = {f.name: f for f in table.key}
    tenant_f, pass_f = by_name.get("tenant_id"), by_name.get("pass_id")
    # The partition key already vouches for the tenant of the tenant's own
    # entries; a shared entry may still constrain it (a non-exact kind).
    kept = table.partition(tenant_id)
    kept += [
        (order, entry) for order, entry in table.partition(None)
        if tenant_f is None
        or _match_one(tenant_f.kind, entry.match.get("tenant_id"), tenant_id)
    ]
    if not kept:
        return {}
    fields, _masked = residual_fields(table)
    lpm = [f for f in table.key if f.kind is MatchKind.LPM]
    passes = range(1, max_passes + 1)
    matches = [entry.match for _order, entry in kept]
    bindings = [
        _compile_binding(entry.action, entry.params, registry) for _order, entry in kept
    ]
    lowered = [_lower(f.kind, [m.get(f.name) for m in matches]) for f in fields]
    try:
        preds = _np.array(
            [[a for a, _b in lowered], [b for _a, b in lowered]], _np.int64
        ).reshape(2, len(fields), len(kept)).transpose(2, 0, 1)
    except OverflowError:
        raise _Uncompilable(
            f"table {table.name!r}: a match value exceeds 64 bits"
        ) from None
    in_passes = []
    for match in matches:
        spec = match.get("pass_id")
        if spec is None:
            in_passes.append(passes)
        elif pass_f.kind is MatchKind.EXACT:
            in_passes.append((int(spec),))
        else:
            in_passes.append([p for p in passes if _match_one(pass_f.kind, spec, p)])
    ranks = [
        (-entry.priority, -entry.lpm_specificity(lpm), order) for order, entry in kept
    ]
    ranked = sorted(range(len(kept)), key=ranks.__getitem__)
    blocks = {}
    for p in passes:
        rows = [i for i in ranked if p in in_passes[i]]
        if rows:
            blocks[p] = Block(preds[rows], tuple(bindings[i] for i in rows))
    return blocks


def compile_chain(pipeline: SwitchPipeline, tenant_id: int) -> CompiledChain:
    """Compile the blocks ``tenant_id``'s packets can reach and give the
    verdict.

    Every partition's generation is read *before* its entries: if a
    concurrent write lands mid-compile the recorded generation is already
    stale and the verdict self-invalidates on first use — the race
    resolves toward a recompile, never toward running stale blocks twice.

    Never raises on uncompilable chains: those come back as a negative
    verdict (``fallback_reason`` set) the engine caches so the
    classification itself is not redone per batch.
    """
    tenant_id = int(tenant_id)
    structure_gen = pipeline.structure_generation
    max_passes = pipeline.max_passes
    registry = pipeline.actions
    tables = [t for s in pipeline.stages for t in s.tables]
    reads = [(t, None, t.partition_generation(None)) for t in tables]
    blocks: dict = {}
    reason = None
    try:
        reach = [tenant_id]
        for table in tables:
            default = _compile_binding(
                table.default_action, table.default_params, registry
            )
            reach += [
                v for c, v in default.writes if c == "tenant_id" and v not in reach
            ]
        for tid in reach:  # grows while walked: every rewrite is followed
            for ti, table in enumerate(tables):
                reads.append((table, tid, table.partition_generation(tid)))
                by_pass = compile_blocks(table, tid, max_passes, registry)
                blocks[ti, tid] = by_pass
                for block in by_pass.values():
                    for v in block.wval[block.wen[:, _TENANT], _TENANT].tolist():
                        if v not in reach:
                            reach.append(v)
    except _Uncompilable as exc:
        blocks, reason = {}, str(exc)
    return CompiledChain(
        tenant_id, blocks, tuple(reads), structure_gen, max_passes, reason
    )
