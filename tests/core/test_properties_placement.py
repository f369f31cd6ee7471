"""Property-based tests (hypothesis) for the placement stack.

Invariants, over randomly generated problem instances:

* every algorithm returns a placement the independent oracle accepts;
* LP relaxation >= ILP optimum >= {rounding, greedy, separate} objectives;
* placements respect the recirculation budget and capacity;
* PipelineState round-trips through Placement and survives arbitrary valid
  add/remove sequences with non-negative resources.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.greedy import greedy_place, try_place_chain
from repro.core.ilp import solve_ilp
from repro.core.rounding import solve_with_rounding
from repro.core.spec import SFC, ProblemInstance, SwitchSpec
from repro.core.state import PipelineState
from repro.core.verify import check_placement
from repro.lp import solve as lp_solve
from repro.core.ilp import build_placement_model

# Small-but-varied instance generator: 2-4 types, 2-4 stages, 1-4 chains.
@st.composite
def instances(draw):
    num_types = draw(st.integers(2, 4))
    stages = draw(st.integers(2, 4))
    blocks = draw(st.integers(2, 6))
    capacity = draw(st.sampled_from([50.0, 100.0, 200.0]))
    switch = SwitchSpec(
        stages=stages,
        blocks_per_stage=blocks,
        block_bits=6400,
        rule_bits=64,
        capacity_gbps=capacity,
    )
    num_sfcs = draw(st.integers(1, 4))
    sfcs = []
    for l in range(num_sfcs):
        length = draw(st.integers(1, min(3, num_types)))
        types = draw(
            st.lists(
                st.integers(1, num_types),
                min_size=length,
                max_size=length,
                unique=True,
            )
        )
        rules = draw(
            st.lists(st.integers(1, 250), min_size=length, max_size=length)
        )
        bw = draw(st.floats(1.0, 40.0, allow_nan=False))
        sfcs.append(
            SFC(
                name=f"s{l}",
                nf_types=tuple(types),
                rules=tuple(rules),
                bandwidth_gbps=bw,
            )
        )
    max_rec = draw(st.integers(0, 2))
    return ProblemInstance(
        switch=switch, sfcs=tuple(sfcs), num_types=num_types,
        max_recirculations=max_rec,
    )


COMMON = dict(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


@given(instance=instances())
@settings(**COMMON)
def test_greedy_always_feasible(instance):
    placement = greedy_place(instance)
    problems = check_placement(placement, require_all_types=False)
    assert problems == [], problems
    assert placement.backplane_gbps <= instance.switch.capacity_gbps + 1e-9
    for asg in placement.assignments.values():
        assert asg.passes(instance.switch.stages) <= instance.max_recirculations + 1


@given(instance=instances(), seed=st.integers(0, 1000))
@settings(**COMMON)
def test_rounding_always_feasible_and_bounded(instance, seed):
    result = solve_with_rounding(instance, rng=seed, require_all_types=False)
    problems = check_placement(result.placement, require_all_types=False)
    assert problems == [], problems
    # Objective never exceeds the LP bound of the budget it won on.
    if result.lp_objective > 0:
        assert result.placement.objective <= result.lp_objective + 1e-6


@given(instance=instances())
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_ilp_dominates_heuristics(instance):
    optimal = solve_ilp(instance, require_all_types=False)
    assert check_placement(optimal, require_all_types=False) == []
    greedy = greedy_place(instance, require_all_types=False)
    assert greedy.objective <= optimal.objective + 1e-6
    rounding = solve_with_rounding(instance, rng=1, require_all_types=False)
    assert rounding.placement.objective <= optimal.objective + 1e-6
    # And the LP relaxation upper-bounds the ILP.
    ilp = build_placement_model(instance, require_all_types=False)
    relaxed = lp_solve(ilp.model, relax=True)
    if relaxed.is_feasible:
        assert optimal.objective <= relaxed.objective + 1e-6


@given(instance=instances(), seed=st.integers(0, 10_000))
@settings(**COMMON)
def test_state_survives_random_churn(instance, seed):
    rng = np.random.default_rng(seed)
    state = PipelineState(instance)
    placed = []  # (sfc index, stages)
    for _ in range(12):
        if placed and rng.random() < 0.4:
            l, stages = placed.pop(int(rng.integers(len(placed))))
            sfc = instance.sfcs[l]
            for j, k in enumerate(stages):
                state.remove_logical_nf(
                    sfc.nf_types[j] - 1,
                    (k - 1) % instance.switch.stages,
                    sfc.rules[j],
                )
            state.release_backplane(
                -(-stages[-1] // instance.switch.stages) * sfc.bw_bps
            )
        else:
            l = int(rng.integers(instance.num_sfcs))
            stages = try_place_chain(
                state, instance.sfcs[l], instance.virtual_stages
            )
            if stages is not None:
                placed.append((l, stages))
        # Invariants after every operation:
        assert (state.entries >= 0).all()
        assert state.backplane_bps >= 0
        for s in range(instance.switch.stages):
            assert 0 <= state.blocks_at_stage(s) <= instance.switch.blocks_per_stage


@given(instance=instances())
@settings(**COMMON)
def test_placement_state_roundtrip(instance):
    placement = greedy_place(instance, require_all_types=False)
    rebuilt = PipelineState.from_placement(placement)
    assert rebuilt.backplane_gbps == pytest.approx(placement.backplane_gbps)
    again = rebuilt.make_placement(placement.assignments, "roundtrip")
    assert again.objective == pytest.approx(placement.objective)
    assert (again.entries_by_type_stage() == placement.entries_by_type_stage()).all()


@given(instance=instances())
@settings(**COMMON)
def test_metrics_internally_consistent(instance):
    placement = greedy_place(instance, require_all_types=False)
    # offloaded <= backplane <= passes-weighted upper bound
    assert placement.offloaded_gbps <= placement.backplane_gbps + 1e-9
    max_passes = instance.max_recirculations + 1
    assert placement.backplane_gbps <= max_passes * placement.offloaded_gbps + 1e-9
    # objective = sum of weights of placed chains
    expected = sum(instance.sfcs[l].weight for l in placement.assignments)
    assert placement.objective == pytest.approx(expected)
    # entry utilization in (0, 1] when anything is placed
    if placement.total_entries:
        assert 0.0 < placement.entry_utilization <= 1.0
