"""Solve statuses and the solution object :func:`repro.lp.solver.solve` returns."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import InfeasibleError

if TYPE_CHECKING:  # pragma: no cover
    from repro.lp.expr import LinExpr, Var
    from repro.lp.model import Model


class SolveStatus(enum.Enum):
    """Terminal status of a solve call.

    ``TIME_LIMIT`` means the solver stopped at its deadline; an incumbent
    (feasible but possibly sub-optimal) solution may or may not be attached.
    This is the status the paper's Fig. 9 "early termination" experiment
    exercises.
    """

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    TIME_LIMIT = "time_limit"
    NO_SOLUTION = "no_solution"

    @property
    def has_solution_possible(self) -> bool:
        return self in (SolveStatus.OPTIMAL, SolveStatus.TIME_LIMIT)


@dataclass
class Solution:
    """Result of solving a model.

    ``values`` is indexed by variable index (the model's ordering); ``None``
    when no feasible point was produced.  ``objective`` is in the model's
    original sense (i.e. already un-negated for maximization models).
    """

    status: SolveStatus
    objective: float | None = None
    values: np.ndarray | None = None
    solve_seconds: float = 0.0
    iterations: int = 0
    #: Best proven bound on the objective (for MILP: HiGHS's dual bound); lets
    #: callers report optimality gaps for early-terminated solves.
    bound: float | None = None

    @property
    def is_feasible(self) -> bool:
        return self.values is not None

    def __getitem__(self, var: "Var") -> float:
        """Value of ``var`` in this solution."""
        if self.values is None:
            raise InfeasibleError(f"no solution available (status={self.status.value})")
        return float(self.values[var.index])

    def value(self, expr: "LinExpr | Var") -> float:
        """Evaluate an expression or variable under this solution."""
        if self.values is None:
            raise InfeasibleError(f"no solution available (status={self.status.value})")
        from repro.lp.expr import Var as _Var

        if isinstance(expr, _Var):
            return float(self.values[expr.index])
        return expr.value(self.values)

    def as_dict(self, model: "Model") -> dict[str, float]:
        """Map variable names to values (for debugging / reports)."""
        if self.values is None:
            raise InfeasibleError(f"no solution available (status={self.status.value})")
        return {v.name: float(self.values[v.index]) for v in model.variables}
