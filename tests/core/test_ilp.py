"""Tests for the joint placement MILP builder and solver."""

import pytest

from repro.core.ilp import build_placement_model, solve_ilp
from repro.core.spec import SFC, ProblemInstance, SwitchSpec
from repro.core.verify import check_placement
from repro.lp import SolveStatus
from repro.lp import solve as lp_solve


def test_model_dimensions(tiny_instance):
    ilp = build_placement_model(tiny_instance)
    I, S = 3, 3
    K = tiny_instance.virtual_stages
    assert len(ilp.x) == I and len(ilp.x[0]) == S
    assert len(ilp.z) == 3
    assert len(ilp.z[0]) == 2           # chain a has 2 NFs
    assert len(ilp.z[0][0]) == K
    assert len(ilp.d) == 3 and len(ilp.p) == 3
    assert ilp.y is not None            # consolidated variant has block vars


def test_solve_places_everything_when_roomy(tiny_instance):
    placement = solve_ilp(tiny_instance)
    assert placement.num_placed == 3
    assert check_placement(placement) == []
    # Total objective = sum of weights.
    expected = sum(s.weight for s in tiny_instance.sfcs)
    assert placement.objective == pytest.approx(expected)


def test_out_of_order_chain_gets_recirculated(tiny_instance):
    placement = solve_ilp(tiny_instance)
    # Chain c is (3, 1): with 3 types on 3 stages and chains a (1,2) and
    # b (2,3) also placed, type order along the pipeline cannot serve
    # 3-before-1 in a single pass for every chain simultaneously -> chain c
    # (or another) must recirculate at least once in any full placement.
    total_passes = sum(placement.passes(l) for l in range(3))
    assert total_passes >= 4  # 3 chains, at least one needs 2 passes


def test_capacity_constraint_limits_selection(tiny_switch):
    # Two chains, each 60 Gbps single-pass; capacity 100 -> only one fits.
    sfcs = (
        SFC(name="a", nf_types=(1,), rules=(10,), bandwidth_gbps=60.0),
        SFC(name="b", nf_types=(1,), rules=(10,), bandwidth_gbps=60.0),
    )
    inst = ProblemInstance(switch=tiny_switch, sfcs=sfcs, num_types=1)
    placement = solve_ilp(inst)
    assert placement.num_placed == 1
    assert placement.backplane_gbps <= 100.0


def test_memory_constraint_limits_selection(tiny_switch):
    # Each chain needs 4 blocks (350 entries / 100-entry blocks with
    # reserve); the switch has 3 stages x 4 blocks.  Three chains of one
    # type-1 NF of 350 rules each = ceil-based packing.
    sfcs = tuple(
        SFC(name=f"s{i}", nf_types=(1,), rules=(390,), bandwidth_gbps=1.0)
        for i in range(4)
    )
    inst = ProblemInstance(switch=tiny_switch, sfcs=sfcs, num_types=1)
    placement = solve_ilp(inst)
    # 4 chains x 390 = 1560 entries; capacity 3 stages x 400 = 1200 -> at
    # most 3 chains.
    assert placement.num_placed == 3
    assert check_placement(placement) == []


def test_consolidation_beats_fragmentation(tiny_switch):
    # Chains of 60-rule NFs: consolidated two share a 100-entry block pair
    # (120 -> 2 blocks), fragmented each rounds to a own block.  Give just
    # enough memory that only consolidation fits all chains.
    sfcs = tuple(
        SFC(name=f"s{i}", nf_types=(1,), rules=(60,), bandwidth_gbps=1.0)
        for i in range(6)
    )
    switch = SwitchSpec(
        stages=1,
        blocks_per_stage=4,
        block_bits=6400,
        rule_bits=64,
        capacity_gbps=100.0,
    )
    inst = ProblemInstance(switch=switch, sfcs=sfcs, num_types=1, max_recirculations=0)
    merged = solve_ilp(inst, consolidate=True)
    frag = solve_ilp(inst, consolidate=False)
    # 6 x 60 = 360 entries -> 4 blocks consolidated (fits); fragmented each
    # NF takes a whole block -> only 4 chains fit.
    assert merged.num_placed == 6
    assert frag.num_placed == 4
    assert merged.objective > frag.objective
    assert check_placement(merged) == []
    assert check_placement(frag, reserve_physical_block=True) == []


def test_require_all_types_constraint(tiny_instance):
    ilp = build_placement_model(tiny_instance, require_all_types=True)
    sol = lp_solve(ilp.model)
    assert sol.status is SolveStatus.OPTIMAL
    placement = ilp.extract(sol)
    assert placement.physical.any(axis=1).all()


def test_extract_requires_feasible_solution(tiny_instance):
    from repro.errors import PlacementError
    from repro.lp.status import Solution

    ilp = build_placement_model(tiny_instance)
    with pytest.raises(PlacementError):
        ilp.extract(Solution(status=SolveStatus.INFEASIBLE))


def test_ordering_respected_in_solution(tiny_instance):
    placement = solve_ilp(tiny_instance)
    for l, asg in placement.assignments.items():
        sfc = tiny_instance.sfcs[l]
        # Types at assigned stages match the chain.
        for j, k in enumerate(asg.stages):
            s = (k - 1) % tiny_instance.switch.stages
            assert placement.physical[sfc.nf_types[j] - 1, s]
        assert list(asg.stages) == sorted(asg.stages)


def test_recirculation_budget_zero_forbids_folding():
    # One block per stage -> each stage hosts exactly one physical NF type,
    # so a reversed chain cannot be served in a single pass alongside the
    # forward chain.
    switch = SwitchSpec(
        stages=3,
        blocks_per_stage=1,
        block_bits=6400,
        rule_bits=64,
        capacity_gbps=100.0,
    )
    sfcs = (
        SFC(name="fwd", nf_types=(1, 2, 3), rules=(10, 10, 10), bandwidth_gbps=30.0),
        SFC(name="rev", nf_types=(3, 2, 1), rules=(10, 10, 10), bandwidth_gbps=1.0),
    )
    inst = ProblemInstance(switch=switch, sfcs=sfcs, num_types=3, max_recirculations=0)
    placement = solve_ilp(inst)
    # Only one of the two fits in a single pass; the forward chain carries
    # 30x the weight, so it wins.
    assert placement.num_placed == 1
    assert 0 in placement.assignments

    # With one recirculation both fit (each folding once in the right
    # physical layout, e.g. 3|1|2 along the stages).
    inst2 = inst.with_recirculations(1)
    placement2 = solve_ilp(inst2)
    assert placement2.num_placed == 2
    assert placement2.passes(1) == 2
    assert check_placement(placement2) == []


def test_solve_seconds_recorded(tiny_instance):
    placement = solve_ilp(tiny_instance)
    assert placement.solve_seconds > 0.0
