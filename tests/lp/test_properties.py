"""Property-based tests (hypothesis) for the LP substrate.

Invariants checked:
* expression arithmetic is consistent with evaluation semantics,
* MILP solutions are feasible and never beat the LP relaxation bound.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lp import Model, Objective, SolveStatus, solve
from repro.lp.expr import lin_sum

coeffs = st.integers(min_value=-5, max_value=5)


@given(
    a=st.lists(coeffs, min_size=1, max_size=6),
    b=st.lists(coeffs, min_size=1, max_size=6),
    point=st.lists(st.floats(-10, 10, allow_nan=False), min_size=6, max_size=6),
    scale=st.integers(min_value=-4, max_value=4),
)
def test_expr_arithmetic_matches_evaluation(a, b, point, scale):
    m = Model()
    xs = [m.add_var(f"x{i}") for i in range(6)]
    ea = lin_sum(c * x for c, x in zip(a, xs))
    eb = lin_sum(c * x for c, x in zip(b, xs))
    combo = ea * scale + eb - 3
    expected = (
        scale * sum(c * p for c, p in zip(a, point))
        + sum(c * p for c, p in zip(b, point))
        - 3
    )
    assert abs(combo.value(point) - expected) < 1e-7


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_bnb_solution_feasible_and_bounded_by_relaxation(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    m = Model()
    xs = [m.add_var(f"x{i}", binary=True) for i in range(n)]
    w = rng.integers(1, 9, size=n)
    v = rng.integers(1, 12, size=n)
    cap = int(max(1, w.sum() // 2))
    m.add_constr(lin_sum(int(wi) * x for wi, x in zip(w, xs)) <= cap)
    m.set_objective(lin_sum(int(vi) * x for vi, x in zip(v, xs)), Objective.MAXIMIZE)
    mip = solve(m)
    relaxation = solve(m, relax=True)
    assert mip.status is SolveStatus.OPTIMAL
    assert m.check_feasible(mip.values) == []
    # Relaxation upper-bounds the integer optimum (maximization).
    assert mip.objective <= relaxation.objective + 1e-6
