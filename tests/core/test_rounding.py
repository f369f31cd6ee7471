"""Tests for the LP-relaxation randomized rounding (Algorithm 1)."""

import pytest

from repro.core.ilp import solve_ilp
from repro.core.rounding import solve_with_rounding
from repro.core.spec import SFC, ProblemInstance
from repro.core.verify import check_placement


def test_result_is_feasible(tiny_instance):
    result = solve_with_rounding(tiny_instance, rng=1)
    assert check_placement(result.placement) == []
    assert result.placement.algorithm == "rounding"


def test_objective_bounded_by_lp(tiny_instance):
    result = solve_with_rounding(tiny_instance, rng=1)
    assert result.placement.objective <= result.lp_objective + 1e-6
    assert 0.0 <= result.gap <= 1.0


def test_objective_bounded_by_ilp(tiny_instance):
    result = solve_with_rounding(tiny_instance, rng=1)
    optimal = solve_ilp(tiny_instance)
    assert result.placement.objective <= optimal.objective + 1e-6


def test_near_optimal_on_roomy_instance(tiny_instance):
    # All three chains fit comfortably; rounding should find all of them.
    result = solve_with_rounding(tiny_instance, rng=3)
    assert result.placement.num_placed == 3
    assert result.gap == pytest.approx(0.0, abs=1e-6)


def test_deterministic_under_seed(tiny_instance):
    a = solve_with_rounding(tiny_instance, rng=42)
    b = solve_with_rounding(tiny_instance, rng=42)
    assert a.placement.objective == pytest.approx(b.placement.objective)
    assert a.placement.assignments.keys() == b.placement.assignments.keys()


def test_recirculation_budgets_respected(tiny_instance):
    result = solve_with_rounding(tiny_instance, rng=1, recirculation_budgets=[0])
    S = tiny_instance.switch.stages
    for asg in result.placement.assignments.values():
        assert asg.passes(S) == 1
    assert list(result.lp_objective_per_r) == [0]


def test_capacity_respected(tiny_switch):
    sfcs = tuple(
        SFC(name=f"s{i}", nf_types=(1,), rules=(10,), bandwidth_gbps=40.0)
        for i in range(5)
    )
    inst = ProblemInstance(switch=tiny_switch, sfcs=sfcs, num_types=1)
    result = solve_with_rounding(inst, rng=1)
    assert result.placement.backplane_gbps <= tiny_switch.capacity_gbps + 1e-9
    assert result.placement.num_placed == 2


def test_attempt_diagnostics_present(tiny_instance):
    result = solve_with_rounding(tiny_instance, rng=1)
    assert result.attempts_per_r
    assert all(a >= 1 for a in result.attempts_per_r.values())
    assert result.placement.solve_seconds > 0



def test_empty_candidate_list(tiny_switch):
    inst = ProblemInstance(switch=tiny_switch, sfcs=(), num_types=2)
    result = solve_with_rounding(inst, rng=1)
    assert result.placement.num_placed == 0
    # Constraint 4 still honored by the fallback layout.
    assert result.placement.physical.any(axis=1).all()
