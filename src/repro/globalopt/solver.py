"""Fleet-wide tenant->switch re-solve: exact ILP for small fleets, a
deterministic greedy repack at scale.

Both paths answer the same question over a :class:`~repro.globalopt.model.
FabricModel`: given every live tenant's footprint and the fleet's
capacities, which assignment minimizes disruption while eliminating
avoidable cross-switch stitches?

* **ILP** (:func:`solve_ilp`): binary ``x[t, s]`` over the existing
  :mod:`repro.lp` seam — one variable per (single-homeable tenant,
  feasible switch), per-switch SRAM-block and backplane knapsack rows,
  pin/forbid fixings, and pairwise anti-affinity cuts.  The objective
  charges 1 per *moved* tenant plus a tiny balance term, so the optimum is
  "unstitch everything single-homeable, moving as few tenants as
  possible".  Tenants the ILP cannot see (chains longer than any switch's
  virtual stages, or forced to split by an intra-chain separation pair)
  are stitched afterwards against the ILP's residual capacity.
* **Greedy repack** (:func:`solve_greedy`): incremental defragmentation
  against *live* usage — settled single-home tenants stay put, and each
  stitched tenant (heaviest first) has its current charges released and
  is re-placed against the real residual: first single-home (preferring
  its own current switches, so the migration plan's make-before-break
  transient check sees the freed half), then a cheaper stitch, else kept
  where it is.  A bounded balance pass then shifts single-home tenants
  from the hottest switch to the coldest while the backplane-utilization
  gap exceeds :data:`BALANCE_GAP` (an even fleet is what keeps the
  partitioner's first choice admitting).  Working from live usage rather
  than an empty fleet keeps every proposed move executable hitlessly.
  Fully deterministic (sorted
  candidate orders, index tiebreaks), so the same snapshot always yields
  the same solution — the property crash-recovery replay relies on.

A tenant neither path can place keeps its current placement and is
reported in :attr:`GlobalSolution.kept`; the planner simply plans no move
for it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.fabric.stitching import split_points

#: Division guard for zero-capacity switches in the balance term.
EPS_CAP = 1e-9
from repro.globalopt.model import (
    ConstraintSet,
    FabricModel,
    TenantFootprint,
    TenantPlan,
    Usage,
    route,
)

#: Above these sizes the ILP's pairwise cuts and knapsack rows stop being
#: worth the solve time; ``mode="auto"`` switches to the greedy repack.
ILP_MAX_TENANTS = 48
ILP_MAX_SWITCHES = 10


@dataclass
class GlobalSolution:
    """One fleet-wide re-solve: a target plan per tenant plus provenance."""

    plans: dict[int, TenantPlan] = field(default_factory=dict)
    mode: str = "greedy"
    solve_s: float = 0.0
    ilp_status: str | None = None
    #: Tenants left at their current placement because no feasible target
    #: was found (never dropped — the fleet stays fully placed).
    kept: tuple[int, ...] = ()
    notes: tuple[str, ...] = ()


def _footprint_weight(foot: TenantFootprint) -> tuple:
    """FFD sort key: heaviest tenants place first (descending rules, then
    bandwidth), tenant id as the deterministic tiebreak."""
    return (-foot.total_rules, -foot.bandwidth_gbps, foot.tenant_id)


def _single_candidates(
    model: FabricModel,
    usage: Usage,
    foot: TenantFootprint,
    constraints: ConstraintSet,
) -> list[str]:
    """Feasible single-home switches, stay-home first then best-fit."""
    pin = constraints.pinned(foot.tenant_id)
    avoid = constraints.forbidden(foot.tenant_id)
    current = model.current.get(foot.tenant_id)
    home = set(current.switches) if current is not None else set()
    names = [pin] if pin is not None else model.active
    feasible = []
    for name in names:
        if name in avoid or name not in model.switches:
            continue
        if usage.segment_fits(
            foot, name, foot.nf_types, foot.rules, foot.length, constraints
        ):
            feasible.append(name)

    def order_key(name: str) -> tuple:
        stay = 0 if name in home else 1
        free_after = (
            model.switches[name].total_blocks
            - usage.blocks[name]
            - model.blocks_needed(foot.rules, name)
        )
        return (stay, free_after, name)

    return sorted(feasible, key=order_key)


def _stitch_candidates(
    model: FabricModel,
    usage: Usage,
    foot: TenantFootprint,
    constraints: ConstraintSet,
) -> TenantPlan | None:
    """First feasible two-segment placement: fold-boundary splits first,
    head/tail switches in stay-home-then-sorted order, connected by the
    multi-hop router."""
    if foot.length < 2:
        return None
    pin = constraints.pinned(foot.tenant_id)
    avoid = constraints.forbidden(foot.tenant_id)
    current = model.current.get(foot.tenant_id)
    prefer = list(current.switches) if current is not None else []
    names = [n for n in model.active if n not in avoid]
    names.sort(key=lambda n: (n not in prefer, n))
    allowed = constraints.allowed_splits(foot)
    min_stages = min(
        (model.switches[n].stages for n in names), default=1
    )
    splits = split_points(foot.length, max(1, min_stages))
    if allowed is not None:
        splits = [j for j in splits if j in set(allowed)]
    for at in splits:
        head_nf, tail_nf = foot.nf_types[:at], foot.nf_types[at:]
        head_rules, tail_rules = foot.rules[:at], foot.rules[at:]
        for head in names:
            if not usage.segment_fits(
                foot, head, head_nf, head_rules, at, constraints
            ):
                continue
            for tail in names:
                if tail == head:
                    continue
                if pin is not None and pin not in (head, tail):
                    continue
                if not usage.segment_fits(
                    foot, tail, tail_nf, tail_rules, foot.length - at,
                    constraints,
                ):
                    continue
                path = route(model, usage, head, tail, foot.bandwidth_gbps)
                if path is None:
                    continue
                return TenantPlan(
                    tenant_id=foot.tenant_id,
                    switches=(head, tail),
                    split=at,
                    links=path,
                )
    return None


def solve_greedy(
    model: FabricModel, constraints: ConstraintSet | None = None
) -> GlobalSolution:
    """Deterministic incremental defragmentation (see the module
    docstring)."""
    t0 = time.perf_counter()
    constraints = constraints or ConstraintSet()
    usage = Usage.from_current(model)
    plans: dict[int, TenantPlan] = dict(model.current)
    kept: list[int] = []
    notes: list[str] = []
    order = sorted(model.tenants.values(), key=_footprint_weight)
    for foot in order:
        current = model.current.get(foot.tenant_id)
        if current is not None and not current.stitched:
            continue  # settled single-home tenants stay put
        if current is not None:
            usage.release(current)
        plan: TenantPlan | None = None
        if not constraints.must_split(foot):
            singles = _single_candidates(model, usage, foot, constraints)
            if singles:
                plan = TenantPlan(
                    tenant_id=foot.tenant_id, switches=(singles[0],)
                )
        if plan is None and (
            current is None or constraints.must_split(foot)
        ):
            plan = _stitch_candidates(model, usage, foot, constraints)
        if plan is None:
            if current is None:  # pragma: no cover - snapshot always places
                notes.append(f"tenant {foot.tenant_id}: no placement found")
                continue
            plan = current
            kept.append(foot.tenant_id)
            notes.append(
                f"tenant {foot.tenant_id}: no single-home room; kept "
                f"stitched at {current.switches}"
            )
        usage.charge(plan)
        plans[foot.tenant_id] = plan
    _balance_pass(model, usage, plans, constraints, notes)
    return GlobalSolution(
        plans=plans,
        mode="greedy",
        solve_s=time.perf_counter() - t0,
        kept=tuple(kept),
        notes=tuple(notes),
    )


#: Stop balancing when the hottest-to-coldest utilization gap closes to this.
BALANCE_GAP = 0.1


def _balance_pass(
    model: FabricModel,
    usage: Usage,
    plans: dict[int, TenantPlan],
    constraints: ConstraintSet,
    notes: list[str],
) -> None:
    """Shift single-home tenants from the hottest switch to the coldest
    until the backplane-utilization gap closes: an even fleet is what
    keeps the partitioner's first choice admitting (spillover control).
    Each round moves the largest tenant that strictly reduces the sum of
    squared utilizations; deterministic and bounded."""

    def spread() -> float:
        return sum(usage.utilization(n) ** 2 for n in model.active)

    moved = 0
    for _ in range(2 * max(1, len(model.active))):
        ranked = sorted(
            model.active, key=lambda n: (usage.utilization(n), n)
        )
        if len(ranked) < 2:
            break
        cold, hot = ranked[0], ranked[-1]
        if usage.utilization(hot) - usage.utilization(cold) < BALANCE_GAP:
            break
        residents = sorted(
            (
                tid
                for tid, plan in plans.items()
                if plan.switches == (hot,)
                and constraints.pinned(tid) is None
                and cold not in constraints.forbidden(tid)
                and not constraints.must_split(model.tenants[tid])
            ),
            key=lambda tid: (-model.tenants[tid].bandwidth_gbps, tid),
        )
        best = None
        before = spread()
        for tid in residents:
            foot = model.tenants[tid]
            old = plans[tid]
            usage.release(old)
            fits = usage.segment_fits(
                foot, cold, foot.nf_types, foot.rules, foot.length,
                constraints,
            )
            if fits:
                trial = TenantPlan(tenant_id=tid, switches=(cold,))
                usage.charge(trial)
                if spread() < before - 1e-12:
                    best = tid
                    break
                usage.release(trial)
            usage.charge(old)
        if best is None:
            break
        plans[best] = TenantPlan(tenant_id=best, switches=(cold,))
        moved += 1
    if moved:
        notes.append(f"balance: {moved} tenant(s) shifted off hot switches")


def solve_ilp(
    model: FabricModel,
    constraints: ConstraintSet | None = None,
    time_limit: float = 2.0,
) -> GlobalSolution | None:
    """Exact single-home assignment via :mod:`repro.lp`; ``None`` when the
    instance is infeasible or the solver gives up (caller falls back to
    the greedy repack)."""
    from repro.lp import Model, Objective, lin_sum, solve

    t0 = time.perf_counter()
    constraints = constraints or ConstraintSet()
    active = model.active
    eligible: list[TenantFootprint] = []
    leftovers: list[TenantFootprint] = []
    for tenant_id in sorted(model.tenants):
        foot = model.tenants[tenant_id]
        if constraints.must_split(foot):
            leftovers.append(foot)
        elif any(model.fits_stages(foot.length, s) for s in active):
            eligible.append(foot)
        else:
            leftovers.append(foot)

    m = Model("globalopt-repack")
    x: dict[tuple[int, str], object] = {}
    for foot in eligible:
        pin = constraints.pinned(foot.tenant_id)
        avoid = constraints.forbidden(foot.tenant_id)
        feasible = []
        for name in active:
            if name in avoid or (pin is not None and name != pin):
                continue
            sw = model.switches[name]
            if not model.fits_stages(foot.length, name):
                continue
            if model.blocks_needed(foot.rules, name) > sw.total_blocks:
                continue
            bp = model.backplane_needed(
                foot.length, foot.bandwidth_gbps, name
            )
            if bp > sw.capacity_gbps:
                continue
            feasible.append(name)
        if not feasible:
            leftovers.append(foot)
            continue
        for name in feasible:
            x[(foot.tenant_id, name)] = m.add_var(
                name=f"x_{foot.tenant_id}_{name}", binary=True
            )
    assigned = [f for f in eligible if any(
        (f.tenant_id, s) in x for s in active
    )]
    if not assigned:
        return None
    for foot in assigned:
        m.add_constr(
            lin_sum(
                x[(foot.tenant_id, s)]
                for s in active
                if (foot.tenant_id, s) in x
            )
            == 1.0,
            name=f"assign_{foot.tenant_id}",
        )
    for name in active:
        sw = model.switches[name]
        block_terms = [
            (model.blocks_needed(f.rules, name), x[(f.tenant_id, name)])
            for f in assigned
            if (f.tenant_id, name) in x
        ]
        if block_terms:
            m.add_constr(
                lin_sum(coef * var for coef, var in block_terms)
                <= float(sw.total_blocks),
                name=f"blocks_{name}",
            )
            m.add_constr(
                lin_sum(
                    model.backplane_needed(f.length, f.bandwidth_gbps, name)
                    * x[(f.tenant_id, name)]
                    for f in assigned
                    if (f.tenant_id, name) in x
                )
                <= sw.capacity_gbps,
                name=f"backplane_{name}",
            )
    # Pairwise anti-affinity cuts (tenant separation + NF-type pairs).
    ids = {f.tenant_id: f for f in assigned}
    cut = 0
    for a, b in constraints.separate_tenants:
        if a in ids and b in ids:
            for name in active:
                if (a, name) in x and (b, name) in x:
                    m.add_constr(
                        x[(a, name)] + x[(b, name)] <= 1.0,
                        name=f"sep_{a}_{b}_{name}",
                    )
                    cut += 1
    for ta in assigned:
        for tb in assigned:
            if tb.tenant_id <= ta.tenant_id:
                continue
            clash = any(
                (a in ta.nf_types and b in tb.nf_types)
                or (b in ta.nf_types and a in tb.nf_types)
                for a, b in constraints.nf_anti_affinity
            )
            if not clash:
                continue
            for name in active:
                if (ta.tenant_id, name) in x and (tb.tenant_id, name) in x:
                    m.add_constr(
                        x[(ta.tenant_id, name)] + x[(tb.tenant_id, name)]
                        <= 1.0,
                        name=f"nfaff_{ta.tenant_id}_{tb.tenant_id}_{name}",
                    )
                    cut += 1
    # Objective: 1 per moved tenant, plus a tiny balance nudge so ties
    # prefer the lighter-loaded switch deterministically.
    terms = []
    for foot in assigned:
        cur = model.current.get(foot.tenant_id)
        cur_switches = set(cur.switches) if cur is not None else set()
        for name in active:
            if (foot.tenant_id, name) not in x:
                continue
            move_cost = (
                0.0
                if len(cur_switches) == 1 and name in cur_switches
                else 1.0
            )
            balance = 0.001 * (
                model.backplane_needed(foot.length, foot.bandwidth_gbps, name)
                / max(model.switches[name].capacity_gbps, EPS_CAP)
            )
            terms.append((move_cost + balance) * x[(foot.tenant_id, name)])
    m.set_objective(lin_sum(terms), sense=Objective.MINIMIZE)
    solution = solve(m, time_limit=time_limit)
    if not solution.is_feasible:
        return None
    plans: dict[int, TenantPlan] = {}
    usage = Usage(model)
    for foot in assigned:
        chosen = None
        for name in active:
            var = x.get((foot.tenant_id, name))
            if var is not None and solution[var] > 0.5:
                chosen = name
                break
        if chosen is None:  # pragma: no cover - assign row forces one
            leftovers.append(foot)
            continue
        plan = TenantPlan(tenant_id=foot.tenant_id, switches=(chosen,))
        plans[foot.tenant_id] = plan
        usage.charge(plan)
    # Stitch the leftovers against the ILP's residual capacity.
    kept: list[int] = []
    notes: list[str] = [f"ilp: {len(assigned)} assigned, {cut} cuts"]
    for foot in sorted(leftovers, key=_footprint_weight):
        plan = _stitch_candidates(model, usage, foot, constraints)
        if plan is None and not constraints.must_split(foot):
            singles = _single_candidates(model, usage, foot, constraints)
            if singles:
                plan = TenantPlan(
                    tenant_id=foot.tenant_id, switches=(singles[0],)
                )
        if plan is None:
            current = model.current.get(foot.tenant_id)
            if current is None:  # pragma: no cover
                notes.append(f"tenant {foot.tenant_id}: unplaceable")
                continue
            plan = current
            kept.append(foot.tenant_id)
        usage.charge(plan)
        plans[foot.tenant_id] = plan
    return GlobalSolution(
        plans=plans,
        mode="ilp",
        solve_s=time.perf_counter() - t0,
        ilp_status=solution.status.name,
        kept=tuple(kept),
        notes=tuple(notes),
    )


def solve_global(
    model: FabricModel,
    constraints: ConstraintSet | None = None,
    mode: str = "auto",
    time_limit: float = 2.0,
) -> GlobalSolution:
    """Re-solve the fleet.  ``mode`` is ``"auto"`` (ILP when the instance
    is small enough, greedy otherwise), ``"ilp"`` (forced, greedy only on
    infeasibility) or ``"greedy"``."""
    if mode not in ("auto", "ilp", "greedy"):
        raise ValueError(f"unknown solve mode {mode!r}")
    want_ilp = mode == "ilp" or (
        mode == "auto"
        and len(model.tenants) <= ILP_MAX_TENANTS
        and len(model.switches) <= ILP_MAX_SWITCHES
    )
    if want_ilp and model.tenants:
        solution = solve_ilp(model, constraints, time_limit=time_limit)
        if solution is not None:
            return solution
    solution = solve_greedy(model, constraints)
    if want_ilp:
        solution.notes = solution.notes + (
            "ilp infeasible or empty; greedy fallback",
        )
    return solution


__all__ = [
    "ILP_MAX_SWITCHES",
    "ILP_MAX_TENANTS",
    "GlobalSolution",
    "solve_global",
    "solve_greedy",
    "solve_ilp",
]
