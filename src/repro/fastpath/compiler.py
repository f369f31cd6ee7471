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
* :func:`compile_blocks` lowers by column: one sweep per key field, one
  resolution and identity check per distinct action name (its write
  columns filled for the whole action group), the rank as one
  ``np.lexsort``, pass membership as one mask.  Vector :class:`Binding`
  tuples are read back from the write rows only when asked for.
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
from itertools import chain
from operator import attrgetter, itemgetter
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
_MATCH_ACTION_PRIORITY = attrgetter("match", "action", "priority")
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
    write-enable / value rows over :data:`COLUMNS` and ``actions`` the
    per-rank action names; ``scalar`` lists the ranks whose binding is a
    scalar one (those are called, not written) and ``fns`` their
    :class:`Binding`\\ s, in the same order.
    """

    __slots__ = ("preds", "wen", "wval", "actions", "scalar", "fns", "_bindings")

    def __init__(self, preds, wen, wval, actions, scalar: list, fns: tuple) -> None:
        self.preds, self.wen, self.wval = preds, wen, wval
        self.actions = actions
        self.scalar = scalar
        self.fns = fns
        self._bindings = None

    @property
    def bindings(self) -> tuple[Binding, ...]:
        """Every rank's :class:`Binding`; the vector ones are read back from
        the write rows on first use (the kernel never needs them)."""
        if self._bindings is None:
            fns = dict(zip(self.scalar, self.fns))
            self._bindings = tuple(
                fns[r] if r in fns else Binding(action, "vector", tuple(
                    (COLUMNS[c], v) for c, (on, v) in enumerate(zip(wen, wval)) if on
                ))
                for r, (action, wen, wval) in enumerate(
                    zip(self.actions, self.wen.tolist(), self.wval.tolist())
                )
            )
        return self._bindings

    def __len__(self) -> int:
        return len(self.actions)


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


def _resolve(action: str, registry):
    """The registered function of ``action``, if it is the canonical one."""
    try:
        fn = registry.resolve(action).fn
    except Exception:
        raise _Uncompilable(f"unknown action {action!r}") from None
    if fn is not _CANONICAL.get(action):
        raise _Uncompilable(f"action {action!r} is overridden in the registry")
    return fn


def _compile_binding(action: str, params: Mapping[str, object], registry) -> Binding:
    """Pre-bind one ``(action, params)`` pair; raises :class:`_Uncompilable`
    for anything the kernel cannot reproduce exactly."""
    fn = _resolve(action, registry)
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


#: What a wildcard (``None``) spec lowers as, per match kind.
_WILDCARD = {
    MatchKind.EXACT: 0,
    MatchKind.TERNARY: (0, 0),
    MatchKind.LPM: (0, 0),
    MatchKind.RANGE: (_I64.min, _I64.max),
}


def _lower(kind: MatchKind, specs: list, out, lpm) -> None:
    """One key field's specs, entry by entry, as the ``a`` and ``b`` of its
    uniform predicate (masked equality, or a range for RANGE fields),
    written to ``out[:, 0]`` and ``out[:, 1]``; an LPM field's prefix
    lengths are added to ``lpm`` (the rank's specificity).  Raises
    ``OverflowError`` for a value beyond 64 bits."""
    n = len(specs)
    wild = None
    if specs.count(None) == n:  # a field no entry constrains
        a, b = (0, 0) if kind is MatchKind.EXACT else _WILDCARD[kind]
        out[:, 0], out[:, 1] = a, b
        return
    if None in specs:
        wild = _np.array([s is None for s in specs], bool)
        fill = _WILDCARD[kind]
        specs = [fill if s is None else s for s in specs]
    if kind is MatchKind.EXACT:
        out[:, 0] = -1
        if wild is not None:
            out[wild, 0] = 0
        out[:, 1] = _np.fromiter(specs, _np.int64, n)
        return
    x, y = _np.fromiter(chain.from_iterable(specs), _np.int64, 2 * n).reshape(n, 2).T
    if kind is MatchKind.RANGE:
        out[:, 0], out[:, 1] = x, y
        return
    if kind is MatchKind.LPM:  # (prefix, length) -> (prefix, mask)
        lpm += y
        y = ((1 << y) - 1) << (32 - y)
    out[:, 0], out[:, 1] = y, x & y


def _lower_actions(entries: list, actions, registry) -> tuple:
    """Every entry's action (``actions``: the names, as an object array) as
    write rows over :data:`COLUMNS`, one action group at a time: each
    distinct action is resolved and identity-checked once, and its columns
    are filled for the whole group.  Returns ``(wen, wval, {entry index:
    scalar Binding})``.

    Raises what the first uncompilable entry (in ``entries`` order) raises
    under :func:`_compile_binding`: on any failure the entries are bound one
    by one again, so the verdict's ``fallback_reason`` does not depend on
    how the groups fell."""
    wen = _np.zeros((len(entries), len(COLUMNS)), bool)
    wval = _np.zeros((len(entries), len(COLUMNS)), _np.int64)
    scalar = {}
    try:
        for action in set(actions.tolist()):
            rows = _np.flatnonzero(actions == action)
            fn = _resolve(action, registry)
            if action in SCALAR_ACTIONS:
                for i in rows.tolist():
                    scalar[i] = Binding(action, "scalar", fn=fn, params=entries[i].params)
                continue
            if action not in VECTOR_ACTIONS:
                raise _Uncompilable(f"action {action!r} is not batch-safe")
            if action == "drop":  # never honors REC: the flag freezes as it was
                wen[rows, _COL["dropped"]] = True
                wval[rows, _COL["dropped"]] = 1
                continue
            params = [entries[i].params for i in rows.tolist()]
            for column, name, required in _WRITES[action]:
                c = _COL[column]
                if column == "egress_set":
                    wen[rows, c], wval[rows, c] = True, 1
                    continue
                try:
                    wval[rows, c] = _np.fromiter(
                        map(itemgetter(name), params), _np.int64, len(params)
                    )
                    wen[rows, c] = True
                except KeyError:
                    if required:
                        raise
                    have = [(i, p[name]) for i, p in zip(rows.tolist(), params) if name in p]
                    if have:
                        at = [i for i, _v in have]
                        wen[at, c] = True
                        wval[at, c] = [int(v) for _i, v in have]
            rec = [i for i, p in zip(rows.tolist(), params) if p.get("rec")]
            if rec:
                wen[rec, _COL["rec"]] = True
                wval[rec, _COL["rec"]] = 1
    except (_Uncompilable, KeyError, TypeError, ValueError, OverflowError):
        for entry in entries:
            _compile_binding(entry.action, entry.params, registry)
        raise
    return wen, wval, scalar


def _pass_rows(pass_f, specs: list, passes: range):
    """``(pass x entry)`` membership: does each entry's ``pass_id`` spec
    match each pass?"""
    if pass_f is None:
        return _np.ones((len(passes), len(specs)), bool)
    if pass_f.kind is MatchKind.EXACT:
        wild = False
        if None in specs:
            wild = _np.array([s is None for s in specs], bool)
            specs = [0 if s is None else s for s in specs]
        try:
            want = _np.fromiter(specs, _np.int64, len(specs))
            return wild | (want == _np.arange(passes.start, passes.stop)[:, None])
        except OverflowError:
            pass  # a pass beyond 64 bits matches none: the general walk says so
    return _np.array(
        [[_match_one(pass_f.kind, s, p) for s in specs] for p in passes], bool
    ).reshape(len(passes), len(specs))


def compile_blocks(
    table: MatchActionTable, tenant_id: int, max_passes: int, registry
) -> dict[int, Block]:
    """Lower ``tenant_id``'s partition of ``table`` (shared-partition
    entries merged in by the same rank) to one :class:`Block` per pass that
    has rules.  Reads no other tenant's entries.

    Column by column: the actions per action group (:func:`_lower_actions`),
    the predicates per key field, the rank as one ``lexsort`` and the pass
    membership as one mask; a pass's block is a row selection of those."""
    # The partition key already vouches for the tenant of the tenant's own
    # entries; a shared entry may still constrain it (a non-exact kind).
    kept = table.partition(tenant_id)
    shared = table.partition(None)
    if not kept and not shared:
        return {}
    by_name = {f.name: f for f in table.key}
    tenant_f = by_name.get("tenant_id")
    kept += [
        (order, entry) for order, entry in shared
        if tenant_f is None
        or _match_one(tenant_f.kind, entry.match.get("tenant_id"), tenant_id)
    ]
    if not kept:
        return {}
    orders, entries = zip(*kept)
    matches, names, priorities = zip(*map(_MATCH_ACTION_PRIORITY, entries))
    actions = _np.array(names, object)
    wen, wval, scalar = _lower_actions(entries, actions, registry)
    fields, _masked = residual_fields(table)
    preds = _np.empty((len(kept), 2, len(fields)), _np.int64)
    lpm = _np.zeros(len(kept), _np.int64)
    try:
        for f, field in enumerate(fields):
            _lower(field.kind, [m.get(field.name) for m in matches], preds[:, :, f], lpm)
    except OverflowError:
        raise _Uncompilable(
            f"table {table.name!r}: a match value exceeds 64 bits"
        ) from None
    for field in (tenant_f, by_name.get("pass_id")):  # LPM here ranks too
        if field is not None and field.kind is MatchKind.LPM:
            lpm += [0 if s is None else int(s[1]) for s in (m.get(field.name) for m in matches)]
    # Rank: priority desc, total LPM prefix length desc, insertion order asc.
    ranked = _np.lexsort((_np.array(orders), -lpm, -_np.array(priorities)))
    passes = range(1, max_passes + 1)
    member = _pass_rows(
        by_name.get("pass_id"), [m.get("pass_id") for m in matches], passes
    )[:, ranked]
    blocks = {}
    for p, present in zip(passes, member.any(1).tolist()):
        if not present:
            continue
        rows = ranked[member[p - 1]]
        ranks, fns = [], ()
        if scalar:
            at = rows.tolist()
            ranks = [r for r, i in enumerate(at) if i in scalar]
            fns = tuple(scalar[at[r]] for r in ranks)
        blocks[p] = Block(preds[rows], wen[rows], wval[rows], actions[rows], ranks, fns)
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
