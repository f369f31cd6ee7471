"""Integration: P4 table structure -> NF stage spans -> sub-NF placement.

Closes the loop between the compiler layer and the control plane: the load
balancer's real three-table program spans 2 stages under the allocator, so
the placement problem must treat it as 2 sub-NFs — and the resulting
placements must keep each sub-NF pair on consecutive virtual stages.
"""


from repro.core.extensions import collapse_assignment, expand_multi_stage_nfs
from repro.core.ilp import solve_ilp
from repro.core.spec import SFC, ProblemInstance, SwitchSpec
from repro.core.verify import check_placement
from repro.nfs import get_nf
from repro.p4 import allocate_stages, chain_program


def lb_span() -> int:
    program = chain_program([get_nf("load_balancer")])
    allocation = allocate_stages(program, num_stages=12, tables_per_stage=8)
    return allocation.span("nf0_")


def test_lb_spans_two_stages():
    assert lb_span() == 2


def test_spans_feed_expansion_and_solve():
    span = lb_span()
    switch = SwitchSpec(stages=4, blocks_per_stage=8, capacity_gbps=100.0)
    sfcs = (
        # firewall -> LB -> router (the LB is type 2 in the catalog).
        SFC(name="a", nf_types=(1, 2, 4), rules=(100, 200, 50), bandwidth_gbps=5.0),
        SFC(name="b", nf_types=(2, 1), rules=(150, 80), bandwidth_gbps=3.0),
    )
    instance = ProblemInstance(
        switch=switch, sfcs=sfcs, num_types=4, max_recirculations=2
    )
    expansion = expand_multi_stage_nfs(instance, {2: span})

    # Chain a becomes FW, LB0, LB1, router.
    assert expansion.expanded.sfcs[0].length == 4

    placement = solve_ilp(expansion.expanded, require_all_types=False)
    assert check_placement(placement, require_all_types=False) == []
    assert placement.num_placed == 2

    # Sub-NFs of one LB sit on consecutive virtual stages in every chain
    # (the dependency chain tab_lb -> tab_lbselect needs adjacent MAUs);
    # our expansion encodes that through strict ordering, so the collapse
    # is well-formed and the sub-stages are increasing.
    for l, asg in placement.assignments.items():
        for j in range(instance.sfcs[l].length):
            positions = expansion.position_map[(l, j)]
            stages = [asg.stages[p] for p in positions]
            assert stages == sorted(stages)

    collapsed = collapse_assignment(expansion, placement)
    assert set(collapsed) == {0, 1}
    for l, stages in collapsed.items():
        assert len(stages) == instance.sfcs[l].length


def test_expanded_catalog_size_matches_span():
    span = lb_span()
    switch = SwitchSpec(stages=4, blocks_per_stage=8)
    instance = ProblemInstance(
        switch=switch,
        sfcs=(SFC(name="a", nf_types=(2,), rules=(10,), bandwidth_gbps=1.0),),
        num_types=2,
        max_recirculations=0,
    )
    expansion = expand_multi_stage_nfs(instance, {2: span})
    assert expansion.expanded.num_types == 2 + (span - 1)
