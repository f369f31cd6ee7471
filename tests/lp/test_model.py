"""Unit tests for the Model container, constraints, and sparse export."""

import math

from dataclasses import replace

import numpy as np
import pytest
from scipy.sparse import csr_matrix

from repro.core.ilp import build_placement_model
from repro.errors import ModelError
from repro.experiments.config import PAPER_SWITCH, PAPER_WORKLOAD
from repro.lp import Model, Objective, Sense, solve
from repro.lp.constraint import Constraint
from repro.traffic.workload import make_instance


@pytest.fixture()
def model():
    return Model("t")


def test_add_var_defaults(model):
    x = model.add_var("x")
    assert x.lb == 0.0
    assert x.ub == math.inf
    assert not x.is_integer


def test_binary_shorthand(model):
    x = model.add_var("x", binary=True)
    assert (x.lb, x.ub, x.is_integer) == (0.0, 1.0, True)


def test_duplicate_names_rejected(model):
    model.add_var("x")
    with pytest.raises(ModelError):
        model.add_var("x")


def test_auto_names_unique(model):
    a = model.add_var()
    b = model.add_var()
    assert a.name != b.name


def test_add_vars_prefix(model):
    xs = model.add_vars(3, "z", binary=True)
    assert [v.name for v in xs] == ["z[0]", "z[1]", "z[2]"]
    assert model.num_integer_vars == 3


def test_var_by_name(model):
    x = model.add_var("target")
    assert model.var_by_name("target") is x
    with pytest.raises(ModelError):
        model.var_by_name("missing")


def test_constraint_normalizes_constant(model):
    x = model.add_var("x")
    constr = (x + 5) <= 12
    assert constr.rhs == pytest.approx(7.0)
    assert constr.lhs.constant == 0.0


def test_constraint_both_sides_expressions(model):
    x = model.add_var("x")
    y = model.add_var("y")
    constr = (x + 1) >= (y - 2)
    assert constr.sense is Sense.GE
    assert constr.lhs.coeffs == {x.index: 1.0, y.index: -1.0}
    assert constr.rhs == pytest.approx(-3.0)


def test_equality_constraint(model):
    x = model.add_var("x")
    y = model.add_var("y")
    constr = x == y
    assert isinstance(constr, Constraint)
    assert constr.sense is Sense.EQ


def test_constant_comparison_rejected(model):
    model.add_var("x")
    with pytest.raises(ModelError):
        Constraint.build(3, 4, Sense.LE)


def test_add_constr_requires_constraint(model):
    with pytest.raises(ModelError):
        model.add_constr(True)  # type: ignore[arg-type]


def test_cross_model_constraint_rejected():
    m1, m2 = Model("a"), Model("b")
    x = m1.add_var("x")
    constr = x <= 1
    with pytest.raises(ModelError):
        m2.add_constr(constr)


def test_constraint_violation_and_satisfaction(model):
    x = model.add_var("x")
    constr = model.add_constr(2 * x <= 4)
    assert constr.is_satisfied([2.0])
    assert constr.violation([3.0]) == pytest.approx(2.0, abs=1e-6)
    ge = model.add_constr(x >= 1)
    assert ge.violation([0.0]) == pytest.approx(1.0, abs=1e-6)
    eq = model.add_constr(x == 2)
    assert eq.violation([5.0]) == pytest.approx(3.0, abs=1e-6)


def test_check_feasible_reports_all_problem_kinds(model):
    x = model.add_var("x", lb=0, ub=1, integer=True)
    model.add_constr(x <= 0, name="cap")
    problems = model.check_feasible([0.5])
    kinds = " ".join(problems)
    assert "integrality" in kinds
    assert "cap" in kinds
    assert model.check_feasible([0.0]) == []


def test_check_feasible_shape_mismatch(model):
    model.add_var("x")
    with pytest.raises(ModelError):
        model.check_feasible([1.0, 2.0])


def test_to_arrays_minimize(model):
    x = model.add_var("x", lb=0, ub=5)
    y = model.add_var("y", lb=-1, ub=1)
    model.add_constr(x + y <= 3)
    model.add_constr(x - y >= 1)
    model.add_constr(x + 2 * y == 2)
    model.set_objective(x + 4 * y, Objective.MINIMIZE)
    form = model.to_arrays()
    assert form.sign == 1.0
    np.testing.assert_allclose(form.c, [1.0, 4.0])
    # GE rows are negated into <= form.
    assert isinstance(form.A_ub, csr_matrix) and isinstance(form.A_eq, csr_matrix)
    np.testing.assert_allclose(form.A_ub.toarray(), [[1.0, 1.0], [-1.0, 1.0]])
    np.testing.assert_allclose(form.b_ub, [3.0, -1.0])
    np.testing.assert_allclose(form.A_eq.toarray(), [[1.0, 2.0]])
    np.testing.assert_allclose(form.b_eq, [2.0])
    np.testing.assert_allclose(form.lb, [0.0, -1.0])
    np.testing.assert_allclose(form.ub, [5.0, 1.0])


def test_to_arrays_maximize_flips_sign(model):
    x = model.add_var("x")
    model.set_objective(2 * x, Objective.MAXIMIZE)
    form = model.to_arrays()
    assert form.sign == -1.0
    np.testing.assert_allclose(form.c, [-2.0])


def test_export_is_sparse_and_exact_on_fig8_quick_instance():
    instance = make_instance(
        replace(PAPER_WORKLOAD, num_sfcs=10), PAPER_SWITCH, max_recirculations=2, rng=3
    )
    m = build_placement_model(instance).model
    form = m.to_arrays()
    assert isinstance(form.A_ub, csr_matrix) and isinstance(form.A_eq, csr_matrix)
    assert form.A_ub.shape[1] == form.A_eq.shape[1] == m.num_vars
    assert form.A_ub.nnz + form.A_eq.nnz == sum(len(c.lhs.coeffs) for c in m.constraints)
    x = solve(m, time_limit=30.0).values
    assert m.check_feasible(x) == []
    assert (form.A_ub @ x <= form.b_ub + 1e-6).all()
    np.testing.assert_allclose(form.A_eq @ x, form.b_eq, atol=1e-6)
    # ... and on a point that breaks rows, the two agree on which ones.
    broken = np.ones(m.num_vars)
    bad_rows = (form.A_ub @ broken > form.b_ub + 1e-6).sum() + (
        np.abs(form.A_eq @ broken - form.b_eq) > 1e-6
    ).sum()
    assert bad_rows == sum(p.startswith("constraint") for p in m.check_feasible(broken)) > 0


def test_objective_constant_preserved(model):
    x = model.add_var("x")
    model.set_objective(x + 10, Objective.MAXIMIZE)
    assert model.to_arrays().objective_constant == pytest.approx(10.0)


def test_objective_from_other_model_rejected():
    m1, m2 = Model("a"), Model("b")
    x = m1.add_var("x")
    with pytest.raises(ModelError):
        m2.set_objective(x + 0)



def test_repr_counts(model):
    model.add_var("x", binary=True)
    model.add_var("y")
    x = model.variables[0]
    model.add_constr(x <= 1)
    text = repr(model)
    assert "vars=2" in text and "1 int" in text and "constrs=1" in text
