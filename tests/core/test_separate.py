"""Tests for the separate (two-level) placement baseline."""

import numpy as np
import pytest

from repro.core.greedy import greedy_place
from repro.core.ilp import solve_ilp
from repro.core.separate import solve_separate
from repro.core.verify import check_placement
from repro.errors import PlacementError


def test_separate_is_feasible(tiny_instance):
    placement = solve_separate(tiny_instance)
    assert placement.algorithm == "separate"
    assert check_placement(placement) == []


def test_separate_never_beats_joint(tiny_instance):
    joint = solve_ilp(tiny_instance)
    separate = solve_separate(tiny_instance)
    assert separate.objective <= joint.objective + 1e-6


def test_separate_at_least_greedy(tiny_instance):
    # Given greedy's own layout, the optimal logical placement can only
    # improve on greedy's logical choices.
    greedy = greedy_place(tiny_instance)
    separate = solve_separate(tiny_instance, layout=greedy.physical)
    assert separate.objective >= greedy.objective - 1e-6


def test_layout_is_respected(tiny_instance):
    layout = np.zeros((3, 3), dtype=bool)
    layout[0, 0] = layout[1, 1] = layout[2, 2] = True
    placement = solve_separate(tiny_instance, layout=layout)
    assert (placement.physical == layout).all()


def test_bad_layout_shape_rejected(tiny_instance):
    with pytest.raises(PlacementError):
        solve_separate(tiny_instance, layout=np.zeros((2, 2), dtype=bool))


def test_infeasible_layout_raises(tiny_instance):
    # All-empty layout violates constraint 4 when required.
    layout = np.zeros((3, 3), dtype=bool)
    with pytest.raises(PlacementError):
        solve_separate(tiny_instance, layout=layout, require_all_types=True)


def test_solve_seconds_recorded(tiny_instance):
    assert solve_separate(tiny_instance).solve_seconds > 0
