"""LP model shapes through ``repro.lp.solve`` (HiGHS ``linprog``)."""

import numpy as np
import pytest

from repro.lp import Model, Objective, SolveStatus, solve


def test_textbook_max_problem():
    # max 3x + 5y s.t. x<=4, 2y<=12, 3x+2y<=18  -> (2, 6), obj 36
    m = Model()
    x = m.add_var("x")
    y = m.add_var("y")
    m.add_constr(x <= 4)
    m.add_constr(2 * y <= 12)
    m.add_constr(3 * x + 2 * y <= 18)
    m.set_objective(3 * x + 5 * y, Objective.MAXIMIZE)
    res = solve(m)
    assert res.status is SolveStatus.OPTIMAL
    assert res.objective == pytest.approx(36.0)
    np.testing.assert_allclose(res.values, [2.0, 6.0], atol=1e-7)


def test_minimization_with_ge_rows():
    # min 2x + 3y s.t. x + y >= 4, x >= 1 -> (4, 0)? cost 8 vs (1,3): 2+9=11 -> x=4,y=0
    m = Model()
    x = m.add_var("x")
    y = m.add_var("y")
    m.add_constr(x + y >= 4)
    m.add_constr(x >= 1)
    m.set_objective(2 * x + 3 * y, Objective.MINIMIZE)
    res = solve(m)
    assert res.status is SolveStatus.OPTIMAL
    assert res.objective == pytest.approx(8.0)


def test_equality_constraints():
    m = Model()
    x = m.add_var("x")
    y = m.add_var("y")
    m.add_constr(x + y == 10)
    m.add_constr(x - y == 2)
    m.set_objective(x + y, Objective.MINIMIZE)
    res = solve(m)
    assert res.status is SolveStatus.OPTIMAL
    np.testing.assert_allclose(res.values, [6.0, 4.0], atol=1e-7)


def test_infeasible_detected():
    m = Model()
    x = m.add_var("x", lb=0, ub=1)
    m.add_constr(x >= 2)
    m.set_objective(x + 0, Objective.MINIMIZE)
    res = solve(m)
    assert res.status is SolveStatus.INFEASIBLE
    assert res.values is None


def test_unbounded_detected():
    m = Model()
    x = m.add_var("x")  # x >= 0, no upper bound
    m.add_constr(x >= 1)
    m.set_objective(x + 0, Objective.MAXIMIZE)
    res = solve(m)
    assert res.status is SolveStatus.UNBOUNDED


def test_negative_lower_bounds_shifted():
    m = Model()
    x = m.add_var("x", lb=-5, ub=5)
    m.set_objective(x + 0, Objective.MINIMIZE)
    res = solve(m)
    assert res.status is SolveStatus.OPTIMAL
    assert res.values[0] == pytest.approx(-5.0)


def test_free_variable_split():
    m = Model()
    x = m.add_var("x", lb=-np.inf, ub=np.inf)
    m.add_constr(x >= -7)
    m.set_objective(x + 0, Objective.MINIMIZE)
    res = solve(m)
    assert res.status is SolveStatus.OPTIMAL
    assert res.values[0] == pytest.approx(-7.0)


def test_upper_bound_only_variable():
    m = Model()
    x = m.add_var("x", lb=-np.inf, ub=3)
    m.set_objective(x + 0, Objective.MAXIMIZE)
    res = solve(m)
    assert res.status is SolveStatus.OPTIMAL
    assert res.values[0] == pytest.approx(3.0)


def test_degenerate_problem_terminates():
    # Classic degeneracy: multiple constraints active at the optimum.
    m = Model()
    x = m.add_var("x")
    y = m.add_var("y")
    m.add_constr(x + y <= 1)
    m.add_constr(x + y <= 1)  # duplicate row
    m.add_constr(x <= 1)
    m.set_objective(x + y, Objective.MAXIMIZE)
    res = solve(m)
    assert res.status is SolveStatus.OPTIMAL
    assert res.objective == pytest.approx(1.0)


def test_no_constraints_bounded_by_variable_bounds():
    m = Model()
    x = m.add_var("x", lb=2, ub=9)
    m.set_objective(x + 0, Objective.MAXIMIZE)
    res = solve(m)
    assert res.status is SolveStatus.OPTIMAL
    assert res.values[0] == pytest.approx(9.0)


def test_redundant_equality_rows_handled():
    m = Model()
    x = m.add_var("x")
    y = m.add_var("y")
    m.add_constr(x + y == 4)
    m.add_constr(2 * x + 2 * y == 8)  # linearly dependent
    m.set_objective(x + 0, Objective.MINIMIZE)
    res = solve(m)
    assert res.status is SolveStatus.OPTIMAL
    assert res.values[0] == pytest.approx(0.0)
    assert res.values[1] == pytest.approx(4.0)
