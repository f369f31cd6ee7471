"""The chain compiler: one walk over a tenant's installed rules.

Compilation exploits two structural facts of the SFP virtualization model:

* Every virtualized rule matches on ``(tenant_id, pass_id)`` exact fields
  (Fig. 3), and within one batch group both are *constants* — all packets
  share the tenant and the kernel executes pass-by-pass.  So those match
  components are evaluated **once at compile time**: entries of other
  tenants/passes are filtered out of each table's step entirely, and tables
  whose whole key is ``{tenant_id, pass_id}`` (the controller's
  ``tenant_map``) fold to a single pre-decided winner.
* The recirculation plan is static: pass ``p`` executes the same table
  slice for every packet of the tenant, so the compiler emits one fused
  step list per pass up to ``max_passes`` and the kernel just follows it.

What comes out is a :class:`CompiledChain`: per pass, an ordered list of
:class:`FoldedStep` (uniform hit/miss + one pre-bound action for the whole
group) and :class:`MatchStep` (rank-ordered surviving entries with
vectorizable predicates over the remaining key fields).  Action parameters
are pre-coerced (the ``int()`` every action performs per packet happens
here, once) and classified:

* **vector** actions (``no_op``/``permit``/``drop``/``set_tenant``/
  ``set_dscp``/``set_dst``/``snat``/``forward``) become columnar writes;
* **scalar-safe** actions (``count``/``rate_limit``/``count_extern``) touch
  only per-packet scratch state, externs, drop and REC — never a header
  field — so the kernel calls the *real* registered function per matched
  packet, in a tight loop;
* anything else (``meter_police`` is genuinely order- and time-dependent
  across packets, and unknown/overridden registrations can do anything)
  makes the chain **uncompilable**: the plan carries a ``fallback_reason``
  and the engine routes the tenant's traffic to the interpreter.

The plan also records its invalidation keys: the pipeline's
``structure_generation``, every walked table's ``generation``, and the
``consts`` — the set of tenant IDs (raw + epoch wire IDs) the folds
depended on, which is what lets the engine invalidate *exactly* the
affected tenants on rule churn.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.dataplane import action as _act
from repro.dataplane.lookup_index import MatchKind, _match_one
from repro.dataplane.packet import Packet
from repro.dataplane.pipeline import SwitchPipeline
from repro.dataplane.table import MatchActionTable, TableEntry

#: Actions the kernel applies as columnar writes (semantics reimplemented,
#: guarded by a compile-time identity check against the canonical
#: implementations so overridden registrations fall back).
VECTOR_ACTIONS = frozenset(
    {"no_op", "permit", "drop", "set_tenant", "set_dscp", "set_dst", "snat", "forward"}
)

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

#: The two match-key fields that are constants within a kernel group.
_CONST_FIELDS = frozenset({"tenant_id", "pass_id"})


@dataclass(frozen=True)
class Binding:
    """One pre-compiled action application.

    ``kind`` is ``"vector"`` (columnar: ``writes``/``egress``/``drop``/
    ``rec`` below fully describe the effect) or ``"scalar"`` (call ``fn``
    with the original ``params`` on each matched :class:`Packet`).
    """

    action: str
    kind: str
    #: Pre-coerced ``(field_name, int_value)`` columnar header writes.
    writes: tuple = ()
    #: Egress port to assign (``forward``), ``None`` = leave alone.
    egress: int | None = None
    #: True = matched packets drop (and their REC flag freezes as-is).
    drop: bool = False
    #: The REC argument, pre-evaluated (``drop`` never honors it).
    rec: bool = False
    #: Scalar bindings only: the registered function and its raw params.
    fn: object = None
    params: Mapping[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class CompiledEntry:
    """One surviving rule of a :class:`MatchStep`, in rank order.

    ``preds`` are the vectorizable predicates over the *non-constant* key
    fields, normalized to ``("exact", field, value)``,
    ``("mask", field, mask, want_masked)`` (ternary + LPM collapse to
    masked equality) or ``("range", field, lo, hi)``; wildcards and the
    constant-folded ``(tenant_id, pass_id)`` components are gone.
    """

    preds: tuple
    binding: Binding


@dataclass(frozen=True)
class FoldedStep:
    """A table application whose outcome is uniform for the whole group:
    either the table's key was entirely ``(tenant_id, pass_id)`` (probed
    once at compile time) or constant-filtering left no candidate entries
    (a uniform miss).  The kernel bumps hit/miss counters in bulk and
    applies one binding."""

    table: MatchActionTable
    hit: bool
    binding: Binding


@dataclass(frozen=True)
class MatchStep:
    """A table application that still needs per-packet matching over the
    non-constant key fields.  ``entries`` are rank-ordered (priority desc,
    LPM specificity desc, insertion order asc): the kernel assigns each
    packet the first entry whose predicates pass, default on none."""

    table: MatchActionTable
    entries: tuple[CompiledEntry, ...]
    default: Binding


class CompiledChain:
    """A tenant's flat execution plan plus its invalidation keys.

    ``passes[p-1]`` is the fused step list for recirculation pass ``p``.
    A chain with ``fallback_reason`` set is a *negative* cache entry: the
    tenant's traffic must take the interpreter, but the generations are
    still recorded so churn re-triggers compilation.
    """

    __slots__ = (
        "tenant_id",
        "passes",
        "consts",
        "table_gens",
        "structure_gen",
        "max_passes",
        "fallback_reason",
    )

    def __init__(
        self,
        tenant_id: int,
        passes: list,
        consts: frozenset,
        table_gens: dict,
        structure_gen: int,
        max_passes: int,
        fallback_reason: str | None = None,
    ) -> None:
        self.tenant_id = tenant_id
        self.passes = passes
        #: Tenant IDs (raw + wire) whose rules this plan baked in — the
        #: precise-invalidation key: a written entry affects this plan iff
        #: its ``tenant_id`` spec matches one of these (or wildcards).
        self.consts = consts
        #: ``id(table) -> [table, generation_at_compile]`` for every table
        #: in the walk; the generation slot is refreshed in place by the
        #: engine when a write provably did not affect this plan.
        self.table_gens = table_gens
        self.structure_gen = structure_gen
        self.max_passes = max_passes
        self.fallback_reason = fallback_reason

    def is_current(self, pipeline: SwitchPipeline) -> bool:
        """Always-correct lazy staleness check (O(#tables) int compares):
        covers mutations that bypass the RuntimeAPI notify hook (e.g. the
        virtualizer writing tables directly)."""
        if self.structure_gen != pipeline.structure_generation:
            return False
        if self.max_passes != pipeline.max_passes:
            return False
        for table, gen in self.table_gens.values():
            if table.generation != gen:
                return False
        return True

    def __repr__(self) -> str:
        status = (
            f"fallback={self.fallback_reason!r}"
            if self.fallback_reason
            else f"steps={sum(len(s) for s in self.passes)}"
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
        return Binding(action=action, kind="scalar", fn=fn, params=params)
    if action not in VECTOR_ACTIONS:
        raise _Uncompilable(f"action {action!r} is not batch-safe")
    rec = bool(params.get("rec"))
    try:
        if action == "drop":
            return Binding(action=action, kind="vector", drop=True)
        if action == "set_tenant":
            return Binding(
                action=action, kind="vector", rec=rec,
                writes=(("tenant_id", int(params["wire_id"])),),
            )
        if action == "set_dscp":
            return Binding(
                action=action, kind="vector", rec=rec,
                writes=(("dscp", int(params["dscp"])),),
            )
        if action == "set_dst":
            writes = [("dst_ip", int(params["dst_ip"]))]
            if "dst_port" in params:
                writes.append(("dst_port", int(params["dst_port"])))
            return Binding(action=action, kind="vector", rec=rec, writes=tuple(writes))
        if action == "snat":
            writes = [("src_ip", int(params["src_ip"]))]
            if "src_port" in params:
                writes.append(("src_port", int(params["src_port"])))
            return Binding(action=action, kind="vector", rec=rec, writes=tuple(writes))
        if action == "forward":
            return Binding(
                action=action, kind="vector", rec=rec, egress=int(params["port"])
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise _Uncompilable(f"action {action!r}: bad params ({exc!r})") from None
    # no_op / permit: REC is their only effect.
    return Binding(action=action, kind="vector", rec=rec)


def _probe_winner(table: MatchActionTable, probe: Packet) -> TableEntry | None:
    """The winning entry for ``probe`` *without* touching the table's
    hit/miss counters (the compile-time probe is not traffic).  Uses the
    lookup index when present, else a counter-free replica of
    :meth:`MatchActionTable.lookup_reference`'s ranking."""
    index = getattr(table, "_index", None)
    if index is not None:
        return index.lookup(probe)
    best: TableEntry | None = None
    best_rank: tuple | None = None
    for order, entry in enumerate(table.entries):
        ok = all(
            _match_one(f.kind, entry.match.get(f.name), probe.get_field(f.name))
            for f in table.key
        )
        if not ok:
            continue
        rank = (entry.priority, entry.lpm_specificity(table.key), -order)
        if best_rank is None or rank > best_rank:
            best, best_rank = entry, rank
    return best


def _normalize_pred(kind: MatchKind, fname: str, spec) -> tuple | None:
    """One field spec -> a vectorizable predicate (``None`` = wildcard)."""
    if spec is None:
        return None
    if kind is MatchKind.EXACT:
        return ("exact", fname, int(spec))
    if kind is MatchKind.TERNARY:
        want, mask = int(spec[0]), int(spec[1])
        if mask == 0:
            return None
        return ("mask", fname, mask, want & mask)
    if kind is MatchKind.LPM:
        prefix, length = int(spec[0]), int(spec[1])
        if length == 0:
            return None
        mask = ((1 << length) - 1) << (32 - length)
        return ("mask", fname, mask, prefix & mask)
    # RANGE
    lo, hi = int(spec[0]), int(spec[1])
    return ("range", fname, lo, hi)


def _compile_table(
    table: MatchActionTable, tenant_const: int, pass_const: int, registry
) -> FoldedStep | MatchStep:
    """Compile one table application under the group's constants."""
    key_names = set(table.key_fields)
    default = _compile_binding(table.default_action, table.default_params, registry)
    if key_names <= _CONST_FIELDS:
        # Whole key is constant for the group: decide the winner now.
        winner = _probe_winner(
            table, Packet(tenant_id=tenant_const, pass_id=pass_const)
        )
        if winner is None:
            return FoldedStep(table=table, hit=False, binding=default)
        binding = _compile_binding(winner.action, winner.params, registry)
        return FoldedStep(table=table, hit=True, binding=binding)
    if default.action == "set_tenant":
        raise _Uncompilable("set_tenant as a default action breaks group uniformity")
    consts = {"tenant_id": tenant_const, "pass_id": pass_const}
    ranked: list[tuple[tuple, CompiledEntry]] = []
    for order, entry in enumerate(table.entries):
        skip = False
        for f in table.key:
            if f.name in consts and not _match_one(
                f.kind, entry.match.get(f.name), consts[f.name]
            ):
                skip = True
                break
        if skip:
            continue
        preds = []
        for f in table.key:
            if f.name in consts:
                continue
            pred = _normalize_pred(f.kind, f.name, entry.match.get(f.name))
            if pred is not None:
                preds.append(pred)
        binding = _compile_binding(entry.action, entry.params, registry)
        if binding.action == "set_tenant":
            # Different packets could diverge in tenant mid-walk, breaking
            # the per-group constant the whole plan is folded on.
            raise _Uncompilable("set_tenant outside a foldable table")
        rank = (-entry.priority, -entry.lpm_specificity(table.key), order)
        ranked.append((rank, CompiledEntry(preds=tuple(preds), binding=binding)))
    if not ranked:
        # Constant filtering removed every candidate: uniform miss.
        return FoldedStep(table=table, hit=False, binding=default)
    ranked.sort(key=lambda item: item[0])
    return MatchStep(
        table=table,
        entries=tuple(ce for _rank, ce in ranked),
        default=default,
    )


def compile_chain(pipeline: SwitchPipeline, tenant_id: int) -> CompiledChain:
    """Walk ``tenant_id``'s installed rules once and emit its plan.

    Generations are snapshotted *before* the walk: if a concurrent write
    lands mid-compile the recorded generation is already stale and the
    plan self-invalidates on first use — the race resolves toward a
    recompile, never toward executing a wrong plan twice.

    Never raises on uncompilable chains: those come back as a negative
    plan (``fallback_reason`` set) the engine caches so the classification
    itself is not redone per batch.
    """
    tenant_id = int(tenant_id)
    structure_gen = pipeline.structure_generation
    table_gens = {
        id(t): [t, t.generation] for s in pipeline.stages for t in s.tables
    }
    consts = {tenant_id}
    registry = pipeline.actions
    passes: list[list] = []
    cur_tenant = tenant_id
    try:
        for pass_id in range(1, pipeline.max_passes + 1):
            steps: list = []
            for stage in pipeline.stages:
                for table in stage.tables:
                    step = _compile_table(table, cur_tenant, pass_id, registry)
                    steps.append(step)
                    if (
                        isinstance(step, FoldedStep)
                        and step.binding.action == "set_tenant"
                    ):
                        # The fold rewrites the whole group's tenant ID —
                        # track it so later steps filter on the wire ID.
                        cur_tenant = step.binding.writes[0][1]
                        consts.add(cur_tenant)
            passes.append(steps)
    except _Uncompilable as exc:
        return CompiledChain(
            tenant_id=tenant_id,
            passes=[],
            consts=frozenset(consts),
            table_gens=table_gens,
            structure_gen=structure_gen,
            max_passes=pipeline.max_passes,
            fallback_reason=str(exc),
        )
    return CompiledChain(
        tenant_id=tenant_id,
        passes=passes,
        consts=frozenset(consts),
        table_gens=table_gens,
        structure_gen=structure_gen,
        max_passes=pipeline.max_passes,
    )
