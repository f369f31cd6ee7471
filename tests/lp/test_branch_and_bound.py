"""MILP model shapes through ``repro.lp.solve`` (HiGHS ``milp``)."""

import pytest

from repro.lp import Model, Objective, SolveStatus, solve


def test_knapsack_small():
    # max 10a + 6b + 4c s.t. a+b+c<=2 (binary) -> a,b -> 16
    m = Model()
    a = m.add_var("a", binary=True)
    b = m.add_var("b", binary=True)
    c = m.add_var("c", binary=True)
    m.add_constr(a + b + c <= 2)
    m.set_objective(10 * a + 6 * b + 4 * c, Objective.MAXIMIZE)
    sol = solve(m)
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.objective == pytest.approx(16.0)
    assert sol[a] == 1.0 and sol[b] == 1.0 and sol[c] == 0.0


def test_integrality_changes_optimum():
    # LP optimum fractional: max x s.t. 2x <= 3, x integer -> 1 (LP: 1.5)
    m = Model()
    x = m.add_var("x", lb=0, ub=10, integer=True)
    m.add_constr(2 * x <= 3)
    m.set_objective(x + 0, Objective.MAXIMIZE)
    sol = solve(m)
    assert sol.objective == pytest.approx(1.0)
    relaxed = solve(m, relax=True)
    assert relaxed.objective == pytest.approx(1.5)


def test_general_integer_variables():
    # max 7x + 2y s.t. 3x + y <= 11, x,y in Z+ -> x=3, y=2 -> 25
    m = Model()
    x = m.add_var("x", lb=0, ub=100, integer=True)
    y = m.add_var("y", lb=0, ub=100, integer=True)
    m.add_constr(3 * x + y <= 11)
    m.set_objective(7 * x + 2 * y, Objective.MAXIMIZE)
    sol = solve(m)
    assert sol.objective == pytest.approx(25.0)


def test_mixed_integer_continuous():
    m = Model()
    x = m.add_var("x", binary=True)
    y = m.add_var("y", lb=0, ub=10)
    m.add_constr(y <= 5 * x)
    m.set_objective(y - 2 * x, Objective.MAXIMIZE)
    sol = solve(m)
    # x=1 gives y=5, obj 3; x=0 gives obj 0.
    assert sol.objective == pytest.approx(3.0)


def test_infeasible_mip():
    m = Model()
    x = m.add_var("x", binary=True)
    m.add_constr(x >= 2)
    m.set_objective(x + 0, Objective.MAXIMIZE)
    sol = solve(m)
    assert sol.status is SolveStatus.INFEASIBLE
    assert not sol.is_feasible


def test_unbounded_mip():
    m = Model()
    x = m.add_var("x", integer=True)  # x >= 0 unbounded above
    m.set_objective(x + 0, Objective.MAXIMIZE)
    sol = solve(m)
    # HiGHS presolve reports "unbounded or infeasible" (scipy status 4).
    assert sol.status in (SolveStatus.UNBOUNDED, SolveStatus.NO_SOLUTION)
    assert not sol.is_feasible


def test_pure_lp_passthrough():
    m = Model()
    x = m.add_var("x", lb=0, ub=2)
    m.set_objective(x + 0, Objective.MAXIMIZE)
    sol = solve(m)
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.objective == pytest.approx(2.0)


def test_incumbent_reported_on_early_stop():
    """With a tiny time limit we may still get a feasible incumbent whose
    objective is <= the true optimum (maximization)."""
    m = Model()
    xs = [m.add_var(f"x{i}", binary=True) for i in range(10)]
    m.add_constr(sum(3 * x for x in xs) <= 10)
    m.set_objective(sum((i + 1) * x for i, x in enumerate(xs)), Objective.MAXIMIZE)
    full = solve(m)
    assert full.status is SolveStatus.OPTIMAL
    limited = solve(m, time_limit=1e-9)
    if limited.is_feasible:
        assert limited.objective <= full.objective + 1e-6
    else:
        assert limited.status is SolveStatus.TIME_LIMIT


def test_bound_brackets_optimum():
    m = Model()
    x = m.add_var("x", lb=0, ub=9, integer=True)
    m.add_constr(2 * x <= 7)
    m.set_objective(x + 0, Objective.MAXIMIZE)
    sol = solve(m)
    assert sol.status is SolveStatus.OPTIMAL
    # For maximization the bound is an upper bound on the objective.
    assert sol.bound is not None
    assert sol.bound >= sol.objective - 1e-6
