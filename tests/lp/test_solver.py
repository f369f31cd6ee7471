"""Tests for ``repro.lp.solve``: the one path Model → sparse rows → HiGHS."""

import math
import warnings

import numpy as np
import pytest

from repro.errors import ModelError, SolverError
from repro.lp import LinExpr, Model, Objective, SolveStatus, solve


def _toy_mip():
    m = Model()
    a = m.add_var("a", binary=True)
    b = m.add_var("b", binary=True)
    m.add_constr(a + b <= 1)
    m.set_objective(3 * a + 2 * b, Objective.MAXIMIZE)
    return m, a, b


def test_relax_flag_drops_integrality():
    m = Model()
    x = m.add_var("x", lb=0, ub=10, integer=True)
    m.add_constr(2 * x <= 5)
    m.set_objective(x + 0, Objective.MAXIMIZE)
    assert solve(m, relax=True).objective == pytest.approx(2.5)
    assert solve(m).objective == pytest.approx(2.0)


def test_objective_constant_round_trip():
    m = Model()
    x = m.add_var("x", lb=0, ub=1)
    m.set_objective(x + 100, Objective.MAXIMIZE)
    assert solve(m).objective == pytest.approx(101.0)


def test_scipy_milp_infeasible():
    m = Model()
    x = m.add_var("x", binary=True)
    y = m.add_var("y", binary=True)
    m.add_constr(x + y >= 3)
    m.set_objective(x + y, Objective.MAXIMIZE)
    sol = solve(m)
    assert sol.status is SolveStatus.INFEASIBLE


def test_scipy_lp_unbounded():
    m = Model()
    x = m.add_var("x")
    m.set_objective(x + 0, Objective.MAXIMIZE)
    sol = solve(m)
    assert sol.status is SolveStatus.UNBOUNDED


def test_solution_value_and_as_dict():
    m, a, b = _toy_mip()
    sol = solve(m)
    assert sol.value(a) == pytest.approx(1.0)
    assert sol.value(3 * a + 2 * b) == pytest.approx(3.0)
    d = sol.as_dict(m)
    assert d["a"] == pytest.approx(1.0)


def test_solution_access_without_values_raises():
    from repro.errors import InfeasibleError

    m = Model()
    x = m.add_var("x", binary=True)
    m.add_constr(x >= 2)
    m.set_objective(x + 0, Objective.MAXIMIZE)
    sol = solve(m)
    with pytest.raises(InfeasibleError):
        _ = sol[x]
    with pytest.raises(InfeasibleError):
        sol.as_dict(m)


def test_scipy_time_limit_accepts_incumbent_or_nothing():
    rng = np.random.default_rng(5)
    m = Model()
    n = 40
    xs = [m.add_var(f"x{i}", binary=True) for i in range(n)]
    w = rng.integers(5, 40, size=n)
    v = rng.integers(5, 40, size=n)
    m.add_constr(sum(int(wi) * x for wi, x in zip(w, xs)) <= int(w.sum() // 3))
    m.set_objective(sum(int(vi) * x for vi, x in zip(v, xs)), Objective.MAXIMIZE)
    sol = solve(m, time_limit=10.0)
    assert sol.status in (SolveStatus.OPTIMAL, SolveStatus.TIME_LIMIT)
    if sol.is_feasible:
        assert m.check_feasible(sol.values) == []


def test_equality_heavy_model():
    m = Model()
    x = m.add_var("x", lb=0, ub=4, integer=True)
    y = m.add_var("y", lb=0, ub=4, integer=True)
    z = m.add_var("z", lb=0, ub=8)
    m.add_constr(x + y == 4)
    m.add_constr(z == 2 * x)
    m.set_objective(z + y, Objective.MAXIMIZE)
    assert solve(m).objective == pytest.approx(8.0)  # x=4,y=0,z=8


def _small_mip(cap_coeff=1.0, floor_coeff=1.0, loose_rhs=5.0, obj_coeff=2.0, y_lb=0.0):
    m = Model("small")
    x = m.add_var("x", binary=True)
    y = m.add_var("y", lb=y_lb, ub=4)
    m.add_constr(x + cap_coeff * y <= 3, name="cap")
    m.add_constr(x + floor_coeff * y >= 1, name="floor")
    m.add_constr(x + y <= loose_rhs, name="loose")
    m.set_objective(x + obj_coeff * y, Objective.MAXIMIZE)
    return m


@pytest.mark.parametrize(
    "bad, solve_kwargs, error, names",
    [
        ({"cap_coeff": math.nan}, {}, ModelError, ("cap", "y")),
        ({"cap_coeff": math.nan}, {"relax": True}, ModelError, ("cap", "y")),
        ({"floor_coeff": math.inf}, {}, ModelError, ("floor", "y")),
        ({"loose_rhs": math.inf}, {"relax": True}, ModelError, ("loose",)),
        ({"obj_coeff": math.nan}, {}, ModelError, ("objective", "y")),
        ({"y_lb": math.nan}, {"relax": True}, ModelError, ("y", "bound")),
        ({}, {"time_limit": -1.0}, SolverError, ("time_limit",)),
        ({}, {"time_limit": 0.0}, SolverError, ("time_limit",)),
        ({}, {"time_limit": math.inf}, SolverError, ("time_limit",)),
        ({}, {"time_limit": math.nan}, SolverError, ("time_limit",)),
    ],
    ids=[
        "nan-coefficient-milp", "nan-coefficient-lp", "inf-coefficient", "inf-rhs",
        "nan-objective", "nan-bound", "time-limit-negative", "time-limit-zero",
        "time-limit-inf", "time-limit-nan",
    ],
)
def test_malformed_input_raises_a_typed_error(bad, solve_kwargs, error, names):
    assert solve(_small_mip()).objective == pytest.approx(6.0)  # x=0, y=3
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no scipy OptimizeWarning either
        with pytest.raises(error) as excinfo:
            solve(_small_mip(**bad), **solve_kwargs)
    assert not isinstance(excinfo.value, ValueError)
    assert all(name in str(excinfo.value) for name in names)


def test_zero_variable_model_is_optimal_at_its_constant():
    m = Model()
    m.set_objective(LinExpr(constant=5.0), Objective.MAXIMIZE)
    sol = solve(m)
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.objective == sol.bound == pytest.approx(5.0)
    assert sol.values.shape == (0,)
