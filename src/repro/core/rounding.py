"""LP relaxation with randomized rounding — the paper's §V-B/§V-C, Algorithm 1.

For each recirculation budget ``r`` in ``0..R`` the joint ILP is built over
``K = S*(r+1)`` virtual stages, relaxed (``Relax_vars``), and solved as an LP
(``LP()``).  The fractional solution is then rounded (``Round_vars``) and the
rounded placement is verified against the original constraints
(``Verify_vars``); chains that do not survive a rounding attempt are the
ones the paper's strip rule would shed (Equation 13 decides assignment
order, so low-value chains yield first).  The best verified placement across
attempts and across all ``r`` trials is returned.

Rounding detail.  The paper rounds each fractional variable independently
("X.Y -> X+1 with probability Y") and loops until the constraint check
passes.  Independent per-``z`` rounding almost never yields a well-formed
chain assignment (sum_k z = d, strictly increasing stages), so — keeping the
paper's randomization exactly where it carries information — we:

1. round each **x_ik** independently with its LP probability (re-instating
   the argmax stage for any type rounded to nothing, to keep constraint 4),
2. round each chain's **d_l** with its LP probability (the LP's ``z`` mass
   for chain position j sums to d_l, so this *is* the marginal the paper
   rounds),
3. for chains rounded in, derive the per-NF stages deterministically by an
   earliest-fit walk seeded with the rounded physical layout (installing a
   missing physical NF when a stage has spare blocks, exactly like the data
   plane would) — any integral ``z`` consistent with the resulting ``x`` and
   the ordering constraint is equivalent for the objective, which only
   depends on ``d``.

A chain the walk cannot settle is stripped for that attempt (the paper's
strip-and-retry, with Eq. 13 deciding who yields first), a residual fill
re-admits coin-flipped-out chains into leftover resources, and the best
verified candidate across attempts and recirculation budgets wins — the
paper's "if result is optimal then keep" step.  The expectation-preservation
claim of randomized rounding (E[objective] = LP objective) holds for the
d-rounding.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.greedy import sfc_metric, try_place_chain
from repro.core.ilp import build_placement_model
from repro.core.placement import NFAssignment, Placement
from repro.core.spec import ProblemInstance
from repro.core.state import PipelineState
from repro.core.verify import check_placement
from repro.lp import SolveStatus
from repro.lp import solve as lp_solve
from repro.rng import make_rng

__all__ = ["RoundingResult", "sfc_metric", "solve_with_rounding"]


@dataclass
class RoundingResult:
    """Outcome of Algorithm 1: the best verified placement plus diagnostics."""

    placement: Placement
    #: LP-relaxation objective for the winning recirculation budget — an
    #: upper bound on any integral objective, reported as the optimality gap.
    lp_objective: float
    #: Rounding attempts used per recirculation budget tried.
    attempts_per_r: dict[int, int] = field(default_factory=dict)
    lp_objective_per_r: dict[int, float] = field(default_factory=dict)

    @property
    def gap(self) -> float:
        """Relative gap between the LP bound and the rounded objective."""
        if self.lp_objective <= 0:
            return 0.0
        return 1.0 - self.placement.objective / self.lp_objective


def _round_physical(
    x_frac: np.ndarray, rng: np.random.Generator, require_all_types: bool
) -> np.ndarray:
    """Independently round the physical layout, restoring constraint (4)."""
    rounded = rng.random(x_frac.shape) < x_frac
    if require_all_types:
        for i in range(x_frac.shape[0]):
            if not rounded[i].any():
                rounded[i, int(np.argmax(x_frac[i]))] = True
    return rounded


def solve_with_rounding(
    instance: ProblemInstance,
    consolidate: bool = True,
    rng: int | np.random.Generator | None = None,
    max_attempts: int | None = None,
    require_all_types: bool = True,
    reserve_physical_block: bool = True,
    recirculation_budgets: list[int] | None = None,
) -> RoundingResult:
    """Run Algorithm 1 ("SFP-Appro.") and return the best verified placement.

    ``recirculation_budgets`` defaults to ``0..instance.max_recirculations``
    (the paper "tried 0 to R").  ``max_attempts`` bounds the rounding retry
    loop per budget; defaults to ``L + 5`` so the strip rule can, in the
    worst case, peel every candidate off.
    """
    start = time.perf_counter()
    rng = make_rng(rng)
    budgets = (
        recirculation_budgets
        if recirculation_budgets is not None
        else list(range(instance.max_recirculations + 1))
    )
    if max_attempts is None:
        max_attempts = instance.num_sfcs + 5

    best: Placement | None = None
    best_lp = 0.0
    attempts_per_r: dict[int, int] = {}
    lp_per_r: dict[int, float] = {}

    for r in budgets:
        sub = instance.with_recirculations(r)
        ilp = build_placement_model(
            sub,
            consolidate=consolidate,
            require_all_types=require_all_types,
            reserve_physical_block=reserve_physical_block,
        )
        lp_solution = lp_solve(ilp.model, relax=True)
        if lp_solution.status is not SolveStatus.OPTIMAL:
            continue
        lp_per_r[r] = float(lp_solution.objective)

        x_frac = np.array(
            [[lp_solution[ilp.x[i][s]] for s in range(sub.switch.stages)]
             for i in range(sub.num_types)]
        )
        d_frac = np.clip(
            np.array([lp_solution[ilp.d[l]] for l in range(sub.num_sfcs)]), 0.0, 1.0
        )

        K = sub.virtual_stages
        for attempt in range(1, max_attempts + 1):
            attempts_per_r[r] = attempt
            physical = _round_physical(x_frac, rng, require_all_types)
            selected = [l for l in range(sub.num_sfcs) if rng.random() < d_frac[l]]
            state = PipelineState(
                sub,
                consolidate=consolidate,
                reserve_physical_block=reserve_physical_block,
            )
            state.physical = physical.copy()
            assignments: dict[int, NFAssignment] = {}
            # Assign highest-metric chains first; a chain that does not fit
            # the rounded layout is stripped for this attempt (Eq. 13's
            # "most resource, least bandwidth" candidates yield first).
            for l in sorted(selected, key=lambda l: -sfc_metric(sub.sfcs[l])):
                stages = try_place_chain(state, sub.sfcs[l], K)
                if stages is not None:
                    assignments[l] = NFAssignment(sfc_index=l, stages=stages)
            # Residual fill: chains the coin flip left out may still fit the
            # rounded layout's leftover memory/bandwidth — admitting them
            # can only raise the objective (maximization).
            leftovers = [l for l in range(sub.num_sfcs) if l not in assignments]
            for l in sorted(leftovers, key=lambda l: -sfc_metric(sub.sfcs[l])):
                stages = try_place_chain(state, sub.sfcs[l], K)
                if stages is not None:
                    assignments[l] = NFAssignment(sfc_index=l, stages=stages)
            candidate = state.make_placement(assignments, algorithm="rounding")
            # Verify_vars: the constructive assignment already respects
            # memory/capacity, so this is a belt-and-braces oracle check.
            problems = check_placement(
                candidate,
                require_all_types=require_all_types,
                reserve_physical_block=reserve_physical_block,
            )
            if problems:
                continue
            if best is None or candidate.objective > best.objective:
                best = candidate
                best_lp = lp_per_r[r]
            if candidate.objective >= lp_per_r[r] - 1e-9:
                break  # rounded result already matches the LP bound

    if best is None:
        # Nothing verified: return the empty (but constraint-4-respecting)
        # placement so callers always get a well-formed result.
        state = PipelineState(
            instance,
            consolidate=consolidate,
            reserve_physical_block=reserve_physical_block,
        )
        for i in range(instance.num_types):
            state.install_physical(i, i % instance.switch.stages)
        best = state.make_placement({}, algorithm="rounding")
        best_lp = max(lp_per_r.values(), default=0.0)

    best.solve_seconds = time.perf_counter() - start
    return RoundingResult(
        placement=best,
        lp_objective=best_lp,
        attempts_per_r=attempts_per_r,
        lp_objective_per_r=lp_per_r,
    )
