"""The optimization model container.

:class:`Model` owns variables and constraints and exports itself to the sparse
matrix form :func:`repro.lp.solver.solve` hands to HiGHS.  The export is the
only place where the constraints' ``{index: coeff}`` dictionaries become
arrays (CSR, so memory follows the non-zeros) — this keeps model
*construction* cheap (the placement ILP builds tens of thousands of terms)
and makes it the one seam where a malformed model is rejected.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import ModelError
from repro.lp.constraint import Constraint, Sense
from repro.lp.expr import LinExpr, Var


class Objective(enum.Enum):
    """Optimization direction."""

    MINIMIZE = "min"
    MAXIMIZE = "max"


@dataclass
class MatrixForm:
    """Matrix export of a model, in **minimization** convention.

    ``A_ub x <= b_ub``, ``A_eq x = b_eq``, ``lb <= x <= ub``; ``c`` already
    carries the sign flip for maximization models, and ``sign`` records that
    flip so objective values can be mapped back (original = sign * min-value).
    Rows keep the model's constraint order; GE rows are negated into ``<=``.
    """

    c: np.ndarray
    A_ub: scipy.sparse.csr_matrix
    b_ub: np.ndarray
    A_eq: scipy.sparse.csr_matrix
    b_eq: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    integrality: np.ndarray  # bool per variable
    sign: float              # +1 for min models, -1 for max models
    objective_constant: float


class Model:
    """A linear / mixed-integer optimization model.

    Typical usage::

        m = Model("placement")
        x = m.add_var("x", lb=0, ub=1, integer=True)
        y = m.add_var("y", lb=0)
        m.add_constr(x + 2 * y <= 4, name="cap")
        m.set_objective(3 * x + y, Objective.MAXIMIZE)
        sol = repro.lp.solve(m)
    """

    def __init__(self, name: str = "model") -> None:
        self.name = name
        self.variables: list[Var] = []
        self.constraints: list[Constraint] = []
        self._var_names: set[str] = set()
        self.objective_expr: LinExpr = LinExpr()
        self.objective_sense: Objective = Objective.MINIMIZE

    # -- variables ------------------------------------------------------
    def add_var(
        self,
        name: str = "",
        lb: float = 0.0,
        ub: float = math.inf,
        integer: bool = False,
        binary: bool = False,
    ) -> Var:
        """Create and register a decision variable.

        ``binary=True`` is shorthand for an integer variable with bounds
        [0, 1].  Variable names must be unique within the model (auto-named
        as ``x<i>`` when empty).
        """
        if binary:
            lb, ub, integer = 0.0, 1.0, True
        index = len(self.variables)
        if not name:
            name = f"x{index}"
        if name in self._var_names:
            raise ModelError(f"duplicate variable name {name!r}")
        var = Var(self, index, name, lb, ub, integer)
        self.variables.append(var)
        self._var_names.add(name)
        return var

    def add_vars(
        self,
        count: int,
        prefix: str,
        lb: float = 0.0,
        ub: float = math.inf,
        integer: bool = False,
        binary: bool = False,
    ) -> list[Var]:
        """Create ``count`` variables named ``prefix[i]``."""
        return [
            self.add_var(f"{prefix}[{i}]", lb=lb, ub=ub, integer=integer, binary=binary)
            for i in range(count)
        ]

    def var_by_name(self, name: str) -> Var:
        """Look up a variable by name (O(n); intended for tests/debugging)."""
        for var in self.variables:
            if var.name == name:
                return var
        raise ModelError(f"no variable named {name!r}")

    @property
    def num_vars(self) -> int:
        return len(self.variables)

    @property
    def num_integer_vars(self) -> int:
        return sum(1 for v in self.variables if v.is_integer)

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)

    # -- constraints -----------------------------------------------------
    def add_constr(self, constraint: Constraint, name: str = "") -> Constraint:
        """Register a constraint built from an expression comparison."""
        if not isinstance(constraint, Constraint):
            raise ModelError(
                f"expected a Constraint (from <=, >= or ==), got {type(constraint).__name__}"
            )
        if constraint.model is not None and constraint.model is not self:
            raise ModelError("constraint references variables from a different model")
        if name:
            constraint.name = name
        elif not constraint.name:
            constraint.name = f"c{len(self.constraints)}"
        self.constraints.append(constraint)
        return constraint

    # -- objective ---------------------------------------------------------
    def set_objective(self, expr: LinExpr | Var, sense: Objective = Objective.MINIMIZE) -> None:
        """Set the objective expression and direction."""
        if isinstance(expr, Var):
            expr = expr.to_expr()
        if not isinstance(expr, LinExpr):
            raise ModelError(f"objective must be a linear expression, got {type(expr).__name__}")
        if expr.model is not None and expr.model is not self:
            raise ModelError("objective references variables from a different model")
        self.objective_expr = expr
        self.objective_sense = sense

    # -- evaluation helpers ---------------------------------------------------
    def check_feasible(
        self,
        assignment: Sequence[float] | np.ndarray,
        tol: float = 1e-6,
        integrality_tol: float = 1e-6,
    ) -> list[str]:
        """Return human-readable descriptions of all violated constraints/bounds.

        An empty list means the assignment is feasible.  Used by the
        randomized-rounding verifier (Algorithm 1's ``Verify_vars``) and by
        the test suite.
        """
        problems: list[str] = []
        arr = np.asarray(assignment, dtype=float)
        if arr.shape != (self.num_vars,):
            raise ModelError(
                f"assignment has shape {arr.shape}, expected ({self.num_vars},)"
            )
        for var in self.variables:
            val = arr[var.index]
            if val < var.lb - tol or val > var.ub + tol:
                problems.append(
                    f"bound: {var.name}={val:g} outside [{var.lb:g}, {var.ub:g}]"
                )
            if var.is_integer and abs(val - round(val)) > integrality_tol:
                problems.append(f"integrality: {var.name}={val:g} is fractional")
        for constr in self.constraints:
            violation = constr.violation(arr, tol)
            if violation > 0.0:
                problems.append(f"constraint {constr.name}: violated by {violation:g}")
        return problems

    # -- export ------------------------------------------------------------
    def to_arrays(self) -> MatrixForm:
        """Export to sparse minimization form (see :class:`MatrixForm`).

        Raises :class:`ModelError` when an objective coefficient, constraint
        coefficient or right-hand side is not finite, or a bound is NaN.
        """
        n = self.num_vars
        sign = 1.0 if self.objective_sense is Objective.MINIMIZE else -1.0

        c = np.zeros(n)
        for idx, coeff in self.objective_expr.coeffs.items():
            c[idx] = sign * coeff

        ub_rows: list[tuple[Constraint, float]] = []
        eq_rows: list[tuple[Constraint, float]] = []
        for constr in self.constraints:
            if constr.sense is Sense.EQ:
                eq_rows.append((constr, 1.0))
            else:  # GE -> negate into LE
                ub_rows.append((constr, 1.0 if constr.sense is Sense.LE else -1.0))
        A_ub, b_ub = _csr_rows(ub_rows, n)
        A_eq, b_eq = _csr_rows(eq_rows, n)

        lb = np.array([v.lb for v in self.variables], dtype=float)
        ub = np.array([v.ub for v in self.variables], dtype=float)
        finite = (c, A_ub.data, b_ub, A_eq.data, b_eq)
        if not all(np.isfinite(a).all() for a in finite) or np.isnan([lb, ub]).any():
            raise ModelError(f"model {self.name!r}: {self._first_malformed()}")
        return MatrixForm(
            c=c,
            A_ub=A_ub,
            b_ub=b_ub,
            A_eq=A_eq,
            b_eq=b_eq,
            lb=lb,
            ub=ub,
            integrality=np.array([v.is_integer for v in self.variables], dtype=bool),
            sign=sign,
            objective_constant=self.objective_expr.constant,
        )

    def _first_malformed(self) -> str:
        """Name the first non-finite coefficient / rhs or NaN bound."""
        rows = [("objective", self.objective_expr.coeffs, 0.0)]
        rows += [(f"constraint {c.name}", c.lhs.coeffs, c.rhs) for c in self.constraints]
        for where, coeffs, rhs in rows:
            for idx, coeff in coeffs.items():
                if not math.isfinite(coeff):
                    return f"{where}: coefficient of {self.variables[idx].name} is {coeff}"
            if not math.isfinite(rhs):
                return f"{where}: right-hand side is {rhs}"
        bad = next(v for v in self.variables if math.isnan(v.lb) or math.isnan(v.ub))
        return f"variable {bad.name} has a NaN bound"

    def __repr__(self) -> str:
        return (
            f"Model({self.name!r}, vars={self.num_vars} "
            f"({self.num_integer_vars} int), constrs={self.num_constraints})"
        )


def _csr_rows(
    rows: list[tuple[Constraint, float]], n: int
) -> tuple[scipy.sparse.csr_matrix, np.ndarray]:
    """``(A, b)`` for ``rows`` of ``(constraint, row_sign)``, straight from
    each constraint's ``{index: coeff}`` dict."""
    import scipy.sparse  # lazy: the serving path imports Model, never exports

    indptr = [0]
    indices: list[int] = []
    data: list[float] = []
    for constr, row_sign in rows:
        coeffs = constr.lhs.coeffs
        indices.extend(coeffs)
        data.extend(row_sign * coeff for coeff in coeffs.values())
        indptr.append(len(indices))
    A = scipy.sparse.csr_matrix(
        (np.array(data, dtype=float), indices, indptr), shape=(len(rows), n)
    )
    b = np.array([row_sign * constr.rhs for constr, row_sign in rows], dtype=float)
    return A, b
