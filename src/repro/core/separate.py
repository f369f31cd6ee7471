"""The *separate* (two-level) placement baseline.

§V-A motivates SFP's joint formulation: "If the two-level allocation is
considered separately, it is challenging to guarantee global optimality."
This module makes that comparison concrete — a library-level baseline that

1. fixes the physical layout first, using a heuristic (the greedy
   algorithm's layout by default, or a caller-supplied one), then
2. solves the *logical* placement optimally against that frozen layout by
   pinning every ``x_ik`` in the joint model.

The result is optimal **given** the layout, so any shortfall against the
joint ILP is attributable purely to separating the two levels — the
quantity the ablation benchmark reports.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.greedy import greedy_place
from repro.core.ilp import build_placement_model
from repro.core.placement import Placement
from repro.core.spec import ProblemInstance
from repro.errors import PlacementError
from repro.lp import solve as lp_solve


def solve_separate(
    instance: ProblemInstance,
    layout: np.ndarray | None = None,
    consolidate: bool = True,
    time_limit: float | None = None,
    **build_kwargs,
) -> Placement:
    """Two-phase placement: freeze the physical layout, then optimize the
    logical placement on it.

    ``layout`` is a boolean ``(I, S)`` matrix; defaults to the layout the
    greedy pass produces.  Raises :class:`PlacementError` when the pinned
    model yields no feasible point (e.g. the layout misses a mandatory type
    under ``require_all_types``).
    """
    start = time.perf_counter()
    if layout is None:
        layout = greedy_place(instance, consolidate=consolidate).physical
    layout = np.asarray(layout, dtype=bool)
    expected = (instance.num_types, instance.switch.stages)
    if layout.shape != expected:
        raise PlacementError(f"layout shape {layout.shape} != {expected}")

    ilp = build_placement_model(instance, consolidate=consolidate, **build_kwargs)
    for i in range(instance.num_types):
        for s in range(instance.switch.stages):
            ilp.model.add_constr(
                ilp.x[i][s] == (1.0 if layout[i, s] else 0.0),
                name=f"pin_x[{i + 1},{s}]",
            )
    solution = lp_solve(ilp.model, time_limit=time_limit)
    if not solution.is_feasible:
        raise PlacementError(
            f"separate placement found no solution (status "
            f"{solution.status.value}); the frozen layout may violate "
            "constraint 4 or the memory reserves"
        )
    placement = ilp.extract(solution)
    placement.algorithm = "separate"
    placement.solve_seconds = time.perf_counter() - start
    return placement
