"""Tests for solve statuses and the Solution wrapper."""

import numpy as np
import pytest

from repro.errors import InfeasibleError
from repro.lp import Model, Objective, SolveStatus, solve
from repro.lp.status import Solution


def test_status_solution_possible_flags():
    assert SolveStatus.OPTIMAL.has_solution_possible
    assert SolveStatus.TIME_LIMIT.has_solution_possible
    assert not SolveStatus.INFEASIBLE.has_solution_possible
    assert not SolveStatus.UNBOUNDED.has_solution_possible
    assert not SolveStatus.NO_SOLUTION.has_solution_possible


def test_solution_is_feasible_tracks_values():
    empty = Solution(status=SolveStatus.TIME_LIMIT)
    assert not empty.is_feasible
    filled = Solution(status=SolveStatus.OPTIMAL, values=np.array([1.0]))
    assert filled.is_feasible


def test_bound_brackets_objective_for_maximization():
    m = Model()
    x = m.add_var("x", lb=0, ub=7, integer=True)
    m.add_constr(2 * x <= 9)
    m.set_objective(x + 0, Objective.MAXIMIZE)
    sol = solve(m)
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.objective == pytest.approx(4.0)
    assert sol.bound >= sol.objective - 1e-6


def test_value_of_expression():
    m = Model()
    x = m.add_var("x", lb=0, ub=3)
    y = m.add_var("y", lb=0, ub=3)
    m.set_objective(x + y, Objective.MAXIMIZE)
    sol = solve(m)
    assert sol.value(2 * x - y) == pytest.approx(3.0)
    assert sol.value(x) == pytest.approx(3.0)


def test_access_before_solution_raises():
    m = Model()
    x = m.add_var("x")
    sol = Solution(status=SolveStatus.NO_SOLUTION)
    with pytest.raises(InfeasibleError):
        _ = sol[x]
    with pytest.raises(InfeasibleError):
        sol.value(x)


def test_timing_recorded():
    m = Model()
    x = m.add_var("x", lb=0, ub=1)
    m.set_objective(x + 0, Objective.MAXIMIZE)
    sol = solve(m)
    assert sol.solve_seconds >= 0.0
