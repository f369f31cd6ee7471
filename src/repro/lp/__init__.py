"""Linear / mixed-integer programming substrate.

The paper solves its placement problem with Gurobi.  No commercial solver is
available here, so this package is a small modeling layer over scipy's HiGHS:

* :mod:`repro.lp.expr` — variables and linear expressions with operator
  overloading (a deliberately small PuLP/Gurobi-style modeling API),
* :mod:`repro.lp.constraint` — linear constraints,
* :mod:`repro.lp.model` — the :class:`~repro.lp.model.Model` container and
  its export to sparse (CSR) matrix form,
* :mod:`repro.lp.solver` — the single entry point :func:`~repro.lp.solver.solve`:
  export, HiGHS ``linprog`` / ``milp``, :class:`~repro.lp.status.Solution`,
* :mod:`repro.lp.status` — solve statuses and the solution object.

The placement layer (:mod:`repro.core`) only ever talks to
:func:`repro.lp.solver.solve`.
"""

from repro.lp.constraint import Constraint, Sense
from repro.lp.expr import LinExpr, Var, lin_sum
from repro.lp.model import Model, Objective
from repro.lp.solver import solve
from repro.lp.status import Solution, SolveStatus

__all__ = [
    "Constraint",
    "LinExpr",
    "Model",
    "Objective",
    "Sense",
    "Solution",
    "SolveStatus",
    "Var",
    "lin_sum",
    "solve",
]
