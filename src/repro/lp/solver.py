"""The solver entry point: ``Model`` → sparse rows → HiGHS.

:func:`solve` is the only function the placement layer calls.  It exports the
model once (:meth:`~repro.lp.model.Model.to_arrays`), hands the arrays to
scipy's HiGHS — ``linprog`` for LPs and relaxations, ``milp`` for anything
with integer variables — and maps the minimization-convention result back to
the model's objective sense.
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro.errors import SolverError
from repro.lp.model import MatrixForm, Model
from repro.lp.status import Solution, SolveStatus

# scipy statuses: 0 optimal, 1 iteration/time limit, 2 infeasible,
# 3 unbounded, 4 other.  Only a MILP that hits its limit carries an incumbent.
_LP_STATUS = {0: SolveStatus.OPTIMAL, 2: SolveStatus.INFEASIBLE, 3: SolveStatus.UNBOUNDED}
_MILP_STATUS = {**_LP_STATUS, 1: SolveStatus.TIME_LIMIT}


def solve(
    model: Model,
    relax: bool = False,
    time_limit: float | None = None,
    mip_gap: float = 1e-6,
) -> Solution:
    """Solve ``model`` and return a :class:`~repro.lp.status.Solution`.

    Parameters
    ----------
    model:
        The model to solve.
    relax:
        Solve the LP relaxation (drop all integrality).  This is Algorithm
        1's ``LP()`` step.
    time_limit:
        Wall-clock limit in seconds for MILP solves (positive and finite).
        On expiry the best incumbent found so far is returned with status
        ``TIME_LIMIT``.
    mip_gap:
        Relative optimality gap at which MILP search stops.
    """
    if time_limit is not None and not 0 < time_limit < math.inf:
        raise SolverError(f"time_limit must be a positive finite number, got {time_limit!r}")
    form = model.to_arrays()
    start = time.perf_counter()
    if model.num_vars == 0:  # HiGHS rejects an empty ``c``; no row can exist either
        solution = Solution(SolveStatus.OPTIMAL, objective=0.0, values=np.zeros(0), bound=0.0)
    elif relax or not form.integrality.any():
        solution = _solve_lp(form)
    else:
        solution = _solve_milp(form, time_limit, mip_gap)
    solution.solve_seconds = time.perf_counter() - start
    # Back from minimization space to the model's own sense.
    if solution.objective is not None:
        solution.objective = form.sign * solution.objective + form.objective_constant
    if solution.bound is not None:
        solution.bound = form.sign * solution.bound + form.objective_constant
    return solution


def _solve_lp(form: MatrixForm) -> Solution:
    """Solve the LP (relaxation) of ``form`` with HiGHS ``linprog``."""
    import scipy.optimize  # lazy: only a process that solves pays for it

    result = scipy.optimize.linprog(
        c=form.c,
        A_ub=form.A_ub if form.A_ub.shape[0] else None,
        b_ub=form.b_ub if form.A_ub.shape[0] else None,
        A_eq=form.A_eq if form.A_eq.shape[0] else None,
        b_eq=form.b_eq if form.A_eq.shape[0] else None,
        bounds=np.column_stack([form.lb, form.ub]),
        method="highs",
    )
    solution = Solution(
        status=_LP_STATUS.get(result.status, SolveStatus.NO_SOLUTION),
        iterations=int(getattr(result, "nit", 0) or 0),
    )
    if solution.status is SolveStatus.OPTIMAL:
        solution.values = np.asarray(result.x, dtype=float)
        solution.objective = solution.bound = float(result.fun)
    return solution


def _solve_milp(form: MatrixForm, time_limit: float | None, mip_gap: float) -> Solution:
    """Solve the MILP in ``form`` with HiGHS branch-and-cut.

    ``time_limit`` maps to HiGHS's wall-clock limit; when the limit fires
    HiGHS returns its incumbent, which is exactly the behaviour the paper's
    early-termination experiment (Fig. 9) relies on.
    """
    import scipy.optimize  # lazy, as in _solve_lp

    constraints = []
    if form.A_ub.shape[0]:
        constraints.append(scipy.optimize.LinearConstraint(form.A_ub, -np.inf, form.b_ub))
    if form.A_eq.shape[0]:
        constraints.append(scipy.optimize.LinearConstraint(form.A_eq, form.b_eq, form.b_eq))
    options: dict = {"mip_rel_gap": mip_gap}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)
    result = scipy.optimize.milp(
        c=form.c,
        constraints=constraints,
        integrality=form.integrality.astype(int),
        bounds=scipy.optimize.Bounds(form.lb, form.ub),
        options=options,
    )
    status = _MILP_STATUS.get(result.status, SolveStatus.NO_SOLUTION)
    solution = Solution(status=status, iterations=int(getattr(result, "mip_node_count", 0) or 0))
    if result.x is not None and status.has_solution_possible:
        solution.values = np.asarray(result.x, dtype=float)
        # Snap integers: HiGHS returns values within its own tolerance.
        idx = np.flatnonzero(form.integrality)
        solution.values[idx] = np.round(solution.values[idx])
        solution.objective = float(form.c @ solution.values)
    if getattr(result, "mip_dual_bound", None) is not None:
        solution.bound = float(result.mip_dual_bound)
    return solution
