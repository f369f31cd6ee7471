"""Fleet-wide tenant->switch re-solve: exact ILP for small fleets, a
deterministic greedy repack at scale.

Both paths answer the same question over a :class:`~repro.globalopt.model.
FabricModel`: given every live tenant's footprint and the fleet's
capacities, which assignment minimizes disruption while eliminating
avoidable cross-switch stitches?

* **ILP** (:func:`solve_ilp`): binary ``x[t, s]`` over the existing
  :mod:`repro.lp` seam — one variable per (single-homeable tenant,
  feasible switch) and per-switch SRAM-block and backplane knapsack rows.
  The objective charges 1 per *moved* tenant plus a tiny balance term, so
  the optimum is "unstitch everything single-homeable, moving as few
  tenants as possible".  Tenants the ILP cannot see (chains longer than
  any switch's virtual stages) are stitched afterwards against the ILP's
  residual capacity.
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
    FabricModel,
    TenantFootprint,
    TenantPlan,
    Usage,
    route,
)

#: Above these sizes the ILP's knapsack rows stop being worth the solve
#: time; ``mode="auto"`` switches to the greedy repack.
ILP_MAX_TENANTS = 48
ILP_MAX_SWITCHES = 10
#: Wall-clock limit of one ILP solve (s); on expiry the best incumbent is
#: used, or the greedy repack when there is none.
ILP_TIME_LIMIT_S = 2.0


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
    model: FabricModel, usage: Usage, foot: TenantFootprint
) -> list[str]:
    """Feasible single-home switches, stay-home first then best-fit."""
    current = model.current.get(foot.tenant_id)
    home = set(current.switches) if current is not None else set()
    feasible = [
        name
        for name in model.active
        if usage.segment_fits(foot, name, foot.rules, foot.length)
    ]

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
    model: FabricModel, usage: Usage, foot: TenantFootprint
) -> TenantPlan | None:
    """First feasible two-segment placement: fold-boundary splits first,
    head/tail switches in stay-home-then-sorted order, connected by the
    multi-hop router."""
    if foot.length < 2:
        return None
    current = model.current.get(foot.tenant_id)
    prefer = list(current.switches) if current is not None else []
    names = sorted(model.active, key=lambda n: (n not in prefer, n))
    min_stages = min(
        (model.switches[n].stages for n in names), default=1
    )
    for at in split_points(foot.length, max(1, min_stages)):
        head_rules, tail_rules = foot.rules[:at], foot.rules[at:]
        for head in names:
            if not usage.segment_fits(foot, head, head_rules, at):
                continue
            for tail in names:
                if tail == head:
                    continue
                if not usage.segment_fits(
                    foot, tail, tail_rules, foot.length - at
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


def solve_greedy(model: FabricModel) -> GlobalSolution:
    """Deterministic incremental defragmentation (see the module
    docstring)."""
    t0 = time.perf_counter()
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
        singles = _single_candidates(model, usage, foot)
        if singles:
            plan = TenantPlan(tenant_id=foot.tenant_id, switches=(singles[0],))
        elif current is None:
            plan = _stitch_candidates(model, usage, foot)
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
    _balance_pass(model, usage, plans, notes)
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
            (tid for tid, plan in plans.items() if plan.switches == (hot,)),
            key=lambda tid: (-model.tenants[tid].bandwidth_gbps, tid),
        )
        best = None
        before = spread()
        for tid in residents:
            foot = model.tenants[tid]
            old = plans[tid]
            usage.release(old)
            if usage.segment_fits(foot, cold, foot.rules, foot.length):
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


def solve_ilp(model: FabricModel) -> GlobalSolution | None:
    """Exact single-home assignment via :mod:`repro.lp`; ``None`` when the
    instance is infeasible or the solver gives up (caller falls back to
    the greedy repack)."""
    from repro.lp import Model, Objective, lin_sum, solve

    t0 = time.perf_counter()
    active = model.active
    eligible: list[TenantFootprint] = []
    leftovers: list[TenantFootprint] = []
    for tenant_id in sorted(model.tenants):
        foot = model.tenants[tenant_id]
        if any(model.fits_stages(foot.length, s) for s in active):
            eligible.append(foot)
        else:
            leftovers.append(foot)

    m = Model("globalopt-repack")
    x: dict[tuple[int, str], object] = {}
    for foot in eligible:
        feasible = []
        for name in active:
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
    solution = solve(m, time_limit=ILP_TIME_LIMIT_S)
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
    notes: list[str] = [f"ilp: {len(assigned)} assigned, 0 cuts"]
    for foot in sorted(leftovers, key=_footprint_weight):
        plan = _stitch_candidates(model, usage, foot)
        if plan is None:
            singles = _single_candidates(model, usage, foot)
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


def solve_global(model: FabricModel, mode: str = "auto") -> GlobalSolution:
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
        solution = solve_ilp(model)
        if solution is not None:
            return solution
    solution = solve_greedy(model)
    if want_ilp:
        solution.notes = solution.notes + (
            "ilp infeasible or empty; greedy fallback",
        )
    return solution


__all__ = [
    "ILP_MAX_SWITCHES",
    "ILP_MAX_TENANTS",
    "ILP_TIME_LIMIT_S",
    "GlobalSolution",
    "solve_global",
    "solve_greedy",
    "solve_ilp",
]
