"""SfcController lifecycle tests: admit/evict/modify bookkeeping, rollback
on data-plane rejection, batch admission parity with the greedy solver, and
drift-bounded reconfiguration."""

import numpy as np
import pytest

from repro.controller import SfcController
from repro.core.greedy import greedy_place
from repro.core.spec import ProblemInstance, SwitchSpec
from repro.core.state import PipelineState
from repro.core.verify import check_placement
from repro.traffic.workload import WorkloadConfig, make_sfcs

from tests.controller.conftest import chain


def assert_state_matches_recompute(controller: SfcController) -> None:
    """The controller's invariant: incremental state == from-scratch state."""
    reference = PipelineState.from_placement(controller.placement)
    assert np.array_equal(controller.state.entries, reference.entries)
    assert np.array_equal(controller.state.nf_blocks, reference.nf_blocks)
    assert np.array_equal(controller.state.physical, reference.physical)
    assert controller.state.backplane_gbps == reference.backplane_gbps


@pytest.fixture
def controller(tiny_instance) -> SfcController:
    return SfcController(tiny_instance)


def test_admit_places_and_installs(controller):
    result = controller.admit(chain(1))
    assert result.ok and result.op == "admit"
    assert result.stages == (1, 2, 3)
    assert result.rules_added == 30
    assert 1 in controller.tenants
    assert controller.installer.installed[1].assignment == (1, 2, 3)
    assert_state_matches_recompute(controller)


def test_admit_rejects_duplicates_and_unknown_evicts(controller):
    assert controller.admit(chain(1)).ok
    dup = controller.admit(chain(1))
    assert not dup.ok and dup.reason == "duplicate-tenant"
    missing = controller.evict(99)
    assert not missing.ok and missing.reason == "unknown-tenant"
    snap = controller.metrics_snapshot()
    assert snap["counters"]["rejected"] == 2
    assert snap["counters"]["rejected.duplicate-tenant"] == 1
    assert snap["counters"]["rejected.unknown-tenant"] == 1


def test_evict_releases_everything(controller):
    controller.admit(chain(1))
    result = controller.evict(1)
    assert result.ok and result.rules_deleted == 30
    assert not controller.tenants
    assert controller.state.entries.sum() == 0
    assert controller.state.backplane_gbps == 0.0
    assert controller.pipeline.total_entries() == 0
    assert_state_matches_recompute(controller)


def test_evict_keeps_physical_nfs_installed(controller):
    # The physical pipeline is static: a departure deletes rules only.
    controller.admit(chain(1))
    physical = controller.state.physical.copy()
    tables = [t.name for stage in controller.pipeline.stages for t in stage.tables]
    assert controller.evict(1).ok
    assert physical.any() and np.array_equal(controller.state.physical, physical)
    assert [t.name for stage in controller.pipeline.stages for t in stage.tables] == tables


def test_evict_then_admit_never_moves_survivors(controller):
    # §V-E: arrivals go into residual resources; live chains stay put.
    assert controller.admit(chain(1)).ok
    assert controller.admit(chain(2, nf_types=(3, 1), rules=(150, 150))).ok
    assert controller.admit(chain(3, nf_types=(2, 3), rules=(20, 20))).ok
    survivors = {t: controller.tenants[t].stages for t in (1, 3)}
    assert controller.evict(2).ok
    assert controller.admit(chain(4, nf_types=(3, 1), rules=(30, 30))).ok
    assert {t: controller.tenants[t].stages for t in (1, 3)} == survivors
    assert_state_matches_recompute(controller)


def test_rule_churn_of_a_folded_chain_is_its_total_rules(controller):
    # A 4-NF chain on the 3-stage switch recirculates: its last NF folds
    # back onto physical stage 0, and every rule still counts once.
    sfc = chain(1, nf_types=(1, 2, 3, 1), rules=(10, 20, 30, 40))
    admitted = controller.admit(sfc)
    assert admitted.ok and max(admitted.stages) > 3
    assert admitted.rules_added == sfc.total_rules == 100
    assert controller.evict(1).rules_deleted == 100
    counters = controller.metrics_snapshot()["counters"]
    assert counters["rules_inserted"] == counters["rules_deleted"] == 100


def test_modify_swaps_chain(controller):
    controller.admit(chain(1, bandwidth_gbps=2.0))
    result = controller.modify(1, chain(0, nf_types=(2, 1), rules=(5, 5)))
    assert result.ok and result.hitless
    assert result.rules_added == 10 and result.rules_deleted == 30
    assert controller.tenants[1].sfc.nf_types == (2, 1)
    assert controller.tenants[1].sfc.tenant_id == 1  # retagged to the target
    assert_state_matches_recompute(controller)


def test_modify_failure_keeps_old_chain(controller):
    controller.admit(chain(1))
    before = controller.state.snapshot()
    too_big = chain(0, nf_types=(1,), rules=(5000,))
    result = controller.modify(1, too_big)
    assert not result.ok and result.reason == "memory-exhausted"
    assert controller.tenants[1].sfc.rules == (10, 10, 10)
    assert np.array_equal(controller.state.entries, before.entries)
    assert controller.state.backplane_bps == before.backplane_bps
    assert_state_matches_recompute(controller)


def test_dataplane_rejection_rolls_back_control_plane(tiny_switch):
    """The control plane does not track the tenant map's SRAM block, so a
    chain needing every block of stage 0 passes placement but is rejected by
    the data plane — and the control plane must roll back to its snapshot."""
    from repro.dataplane.table import TableEntry

    def full_fidelity(sfc, position, nf_name):
        """Mirror every accounted rule entry onto the data plane."""
        return tuple(
            TableEntry(match={}, action="permit", priority=-(r + 1))
            for r in range(sfc.rules[position])
        )

    instance = ProblemInstance(
        switch=tiny_switch, sfcs=(), num_types=1, max_recirculations=0
    )
    controller = SfcController(instance, rule_factory=full_fidelity)
    full_stage = chain(1, nf_types=(1,), rules=(400,))
    result = controller.admit(full_stage)
    assert not result.ok and result.reason == "dataplane-rejected"
    assert not controller.tenants
    assert controller.state.entries.sum() == 0
    assert controller.state.physical.sum() == 0
    snap = controller.metrics_snapshot()
    assert snap["counters"]["installs_rolled_back"] == 1
    assert_state_matches_recompute(controller)
    # A chain that leaves room for the map installs fine afterwards.
    assert controller.admit(chain(2, nf_types=(1,), rules=(300,))).ok


def test_admit_many_matches_greedy(tiny_switch):
    """Batch admission over an empty controller reproduces the greedy
    solver's placement chain for chain (same metric order, same engine)."""
    workload = WorkloadConfig(
        num_sfcs=12, num_types=3, avg_chain_length=2, chain_length_spread=1,
        rules_min=10, rules_max=120, mean_bandwidth_gbps=4.0,
    )
    sfcs = make_sfcs(workload, rng=7)
    instance = ProblemInstance(
        switch=tiny_switch, sfcs=tuple(sfcs), num_types=3, max_recirculations=2
    )
    reference = greedy_place(instance, require_all_types=False)

    controller = SfcController(instance.with_sfcs(()), with_dataplane=False)
    results = controller.admit_many(sfcs)
    admitted = {r.tenant_id for r in results if r.ok}
    assert admitted == {sfcs[l].tenant_id for l in reference.assignments}
    for l, asg in reference.assignments.items():
        assert controller.tenants[sfcs[l].tenant_id].stages == asg.stages
    assert controller.placement.objective == pytest.approx(reference.objective)
    assert check_placement(controller.placement, require_all_types=False) == []
    assert_state_matches_recompute(controller)


def test_install_catalog_covers_all_types(controller):
    controller.admit(chain(1, nf_types=(1,), rules=(10,)))
    controller.install_catalog()
    assert controller.state.physical.any(axis=1).all()
    for i in range(3):
        stages = np.flatnonzero(controller.state.physical[i])
        assert len(stages) >= 1
        # The data plane mirrors every control-plane physical NF.
        from repro.dataplane.virtualization import physical_table_name
        from repro.nfs.registry import get_nf
        for s in stages:
            controller.pipeline.stage(int(s)).table(
                physical_table_name(get_nf(i + 1).name, int(s))
            )


@pytest.fixture
def drift_instance() -> ProblemInstance:
    """2 stages x 2 blocks of 100 entries, 2 types, one recirculation."""
    switch = SwitchSpec(
        stages=2, blocks_per_stage=2, block_bits=6400, rule_bits=64,
        capacity_gbps=100.0,
    )
    return ProblemInstance(switch=switch, sfcs=(), num_types=2, max_recirculations=1)


def drift_churn(controller: SfcController) -> SfcController:
    """Drive the fragmentation scenario: a space hog forces tenant 2's chain
    to fold across two passes, then departs."""
    # Tenant 1 fills stage 0 with type-1 rules (2 blocks).
    assert controller.admit(chain(1, nf_types=(1,), rules=(200,))).ok
    # Tenant 2 (type 2 then type 1) must put type 2 on stage 1 and fold back
    # to stage 0 on pass 2 for type 1... stage 0 is full, so type 1 also
    # lands on stage 1, still needing 2 passes: stages (2, 4).
    assert controller.admit(
        chain(2, nf_types=(2, 1), rules=(100, 100), bandwidth_gbps=10.0)
    ).ok
    assert controller.tenants[2].stages == (2, 4)
    # The hog leaves; tenant 2 alone still burns 2 passes (20 Gbps).
    assert controller.evict(1).ok
    assert controller.state.backplane_gbps == pytest.approx(20.0)
    return controller


def test_maybe_reconfigure_adopts_reference(drift_instance):
    """Departure leaves a folded chain a fresh solve would unfold; the
    backplane-drift threshold trips and the reference is adopted."""
    controller = drift_churn(
        SfcController(drift_instance, with_dataplane=False, reconfigure_threshold=0.25)
    )
    assert controller.maybe_reconfigure()
    # Unfolded: one pass, half the backplane.
    assert controller.tenants[2].stages in ((1, 2), (1, 4), (2, 4), (1, 3))
    assert controller.state.backplane_gbps == pytest.approx(10.0)
    snap = controller.metrics_snapshot()
    assert snap["counters"]["reconfigurations"] == 1
    assert snap["counters"]["rules_inserted"] >= 200 + 200  # admits + reinstall
    assert_state_matches_recompute(controller)
    assert check_placement(controller.placement, require_all_types=False) == []
    # Second call: no further drift.
    assert not controller.maybe_reconfigure()


def test_maybe_reconfigure_respects_threshold(drift_instance):
    """A 50% backplane saving does not trip a 0.75 threshold."""
    controller = drift_churn(
        SfcController(drift_instance, with_dataplane=False, reconfigure_threshold=0.75)
    )
    assert not controller.maybe_reconfigure()
    assert controller.tenants[2].stages == (2, 4)


def test_maybe_reconfigure_with_dataplane_reinstalls(drift_instance):
    """With a data plane attached, adoption re-installs the survivor via
    make-before-break and its traffic follows the new placement."""
    from repro.dataplane.packet import Packet

    controller = drift_churn(
        SfcController(drift_instance, reconfigure_threshold=0.25)
    )
    assert controller.maybe_reconfigure()
    result = controller.pipeline.process(Packet(tenant_id=2, pass_id=1), trace=True)
    applied = [t for t in result.applied_tables() if not t.startswith("tenant_map")]
    S = drift_instance.switch.stages
    expected = [
        f"{name}@s{(k - 1) % S}"
        for name, k in zip(("load_balancer", "firewall"), controller.tenants[2].stages)
    ]
    assert applied == expected
    assert result.passes == -(-controller.tenants[2].stages[-1] // S)
    assert_state_matches_recompute(controller)
