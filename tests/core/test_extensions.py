"""Tests for the §VII extensions: NF state accounting and sub-NF expansion."""

import pytest

from repro.core.extensions import (
    account_nf_state,
    collapse_assignment,
    expand_multi_stage_nfs,
)
from repro.core.greedy import greedy_place
from repro.core.ilp import solve_ilp
from repro.core.spec import SFC, ProblemInstance
from repro.core.verify import check_placement
from repro.errors import PlacementError


@pytest.fixture()
def instance(tiny_switch):
    sfcs = (
        SFC(name="a", nf_types=(1, 2), rules=(50, 50), bandwidth_gbps=10.0),
        SFC(name="b", nf_types=(2, 3), rules=(80, 20), bandwidth_gbps=20.0),
    )
    return ProblemInstance(switch=tiny_switch, sfcs=sfcs, num_types=3,
                           max_recirculations=1)


class TestStateAccounting:
    def test_state_added_to_matching_types(self, instance):
        out = account_nf_state(instance, {2: 30})
        assert out.sfcs[0].rules == (50, 80)
        assert out.sfcs[1].rules == (110, 20)
        # Untouched fields preserved.
        assert out.sfcs[0].bandwidth_gbps == 10.0
        assert out.num_types == 3

    def test_original_instance_unchanged(self, instance):
        account_nf_state(instance, {1: 100})
        assert instance.sfcs[0].rules == (50, 50)

    def test_unknown_type_rejected(self, instance):
        with pytest.raises(PlacementError):
            account_nf_state(instance, {9: 10})

    def test_negative_state_rejected(self, instance):
        with pytest.raises(PlacementError):
            account_nf_state(instance, {1: -1})

    def test_state_reduces_admission(self, tiny_switch):
        # Chains that barely fit stop fitting once state is charged.
        sfcs = tuple(
            SFC(name=f"s{i}", nf_types=(1,), rules=(350,), bandwidth_gbps=1.0)
            for i in range(3)
        )
        inst = ProblemInstance(switch=tiny_switch, sfcs=sfcs, num_types=1,
                               max_recirculations=0)
        plain = solve_ilp(inst)
        heavy = solve_ilp(account_nf_state(inst, {1: 400}))
        assert heavy.num_placed < plain.num_placed


class TestSubNFExpansion:
    def test_expansion_shapes(self, instance):
        exp = expand_multi_stage_nfs(instance, {2: 3})
        assert exp.expanded.num_types == 5  # 3 originals + 2 synthetic
        assert exp.subtypes[2] == (2, 4, 5)
        a = exp.expanded.sfcs[0]
        assert a.nf_types == (1, 2, 4, 5)
        assert a.rules == (50, 50, 0, 0)  # big table keeps the rules
        assert exp.position_map[(0, 1)] == (1, 2, 3)

    def test_span_one_is_identity(self, instance):
        exp = expand_multi_stage_nfs(instance, {})
        assert exp.expanded.sfcs == instance.sfcs
        assert exp.expanded.num_types == 3

    def test_validation(self, instance):
        with pytest.raises(PlacementError):
            expand_multi_stage_nfs(instance, {9: 2})
        with pytest.raises(PlacementError):
            expand_multi_stage_nfs(instance, {1: 0})

    def test_expanded_instance_solves_and_collapses(self, instance):
        exp = expand_multi_stage_nfs(instance, {2: 2})
        placement = solve_ilp(exp.expanded)
        assert check_placement(placement) == []
        collapsed = collapse_assignment(exp, placement)
        for l, stages in collapsed.items():
            original = instance.sfcs[l]
            assert len(stages) == original.length
            assert list(stages) == sorted(stages)

    def test_collapse_rejects_foreign_placement(self, instance):
        exp = expand_multi_stage_nfs(instance, {2: 2})
        other = greedy_place(instance)
        with pytest.raises(PlacementError):
            collapse_assignment(exp, other)

    def test_expansion_consumes_more_stages(self, instance):
        # A span-2 NF needs two consecutive stage slots: the expanded chain
        # is longer, so its last stage is at least the original's.
        exp = expand_multi_stage_nfs(instance, {2: 2})
        plain = solve_ilp(instance)
        expanded = solve_ilp(exp.expanded)
        if 0 in plain.assignments and 0 in expanded.assignments:
            assert (
                expanded.assignments[0].last_stage
                >= plain.assignments[0].last_stage
            )
