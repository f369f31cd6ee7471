"""Tests for SFC virtualization: tenant/pass match prepends, REC at fold
points, first-fit allocation, atomic install/uninstall."""

import pytest

from repro.core.spec import SwitchSpec
from repro.dataplane.packet import Packet
from repro.dataplane.pipeline import SwitchPipeline
from repro.dataplane.table import TableEntry
from repro.dataplane.virtualization import (
    LogicalNF,
    LogicalSFC,
    SFCVirtualizer,
    physical_table_name,
)
from repro.errors import DataPlaneError, ResourceExhaustedError
from repro.nfs import install_physical_nf


def wildcard(action="permit", **params):
    return TableEntry(match={}, action=action, params=params)


@pytest.fixture()
def pipeline():
    """FW @ s0, TC @ s1, LB @ s2."""
    pl = SwitchPipeline(
        spec=SwitchSpec(stages=3, blocks_per_stage=6), max_passes=3
    )
    for stage, nf in enumerate(("firewall", "traffic_classifier", "load_balancer")):
        install_physical_nf(pl, nf, stage)
    return pl


@pytest.fixture()
def virtualizer(pipeline):
    return SFCVirtualizer(pipeline)


def _sfc(tenant, *names_rules):
    return LogicalSFC(
        tenant_id=tenant,
        nfs=tuple(LogicalNF(n, rules) for n, rules in names_rules),
    )


class TestPlanAllocation:
    def test_in_order_chain_single_pass(self, virtualizer):
        sfc = _sfc(1, ("firewall", (wildcard(),)), ("load_balancer", (wildcard(),)))
        assert virtualizer.plan_allocation(sfc) == (1, 3)

    def test_out_of_order_chain_folds(self, virtualizer):
        sfc = _sfc(1, ("load_balancer", (wildcard(),)), ("firewall", (wildcard(),)))
        assert virtualizer.plan_allocation(sfc) == (3, 4)  # fold to pass 2

    def test_unreachable_type_raises(self, virtualizer):
        sfc = _sfc(1, ("router", (wildcard(),)))
        with pytest.raises(ResourceExhaustedError):
            virtualizer.plan_allocation(sfc)

    def test_pass_budget_exhausted(self, pipeline, virtualizer):
        # 4 reversed hops over 3 passes: LB, TC, FW, LB again... construct a
        # chain needing more passes than allowed.
        sfc = _sfc(
            1,
            ("load_balancer", (wildcard(),)),
            ("traffic_classifier", (wildcard(),)),
            ("firewall", (wildcard(),)),
            ("load_balancer", (wildcard(),)),
            ("firewall", (wildcard(),)),
        )
        with pytest.raises(ResourceExhaustedError):
            virtualizer.plan_allocation(sfc)


class TestInstall:
    def test_rules_get_tenant_and_pass_fields(self, pipeline, virtualizer):
        sfc = _sfc(7, ("firewall", (wildcard(),)))
        virtualizer.install_sfc(sfc)
        table = pipeline.stage(0).table(physical_table_name("firewall", 0))
        assert table.num_entries == 1
        entry = table.entries[0]
        assert entry.match["tenant_id"] == 7
        assert entry.match["pass_id"] == 1

    def test_fold_point_rules_carry_rec(self, pipeline, virtualizer):
        sfc = _sfc(
            1,
            ("load_balancer", (wildcard(),)),
            ("firewall", (wildcard(),)),
        )
        virtualizer.install_sfc(sfc)
        lb = pipeline.stage(2).table(physical_table_name("load_balancer", 2))
        fw = pipeline.stage(0).table(physical_table_name("firewall", 0))
        assert lb.entries[0].params.get("rec") is True
        assert fw.entries[0].match["pass_id"] == 2
        assert "rec" not in fw.entries[0].params

    def test_duplicate_tenant_rejected(self, virtualizer):
        sfc = _sfc(1, ("firewall", (wildcard(),)))
        virtualizer.install_sfc(sfc)
        with pytest.raises(DataPlaneError):
            virtualizer.install_sfc(sfc)

    def test_explicit_assignment_respected(self, pipeline, virtualizer):
        sfc = _sfc(1, ("firewall", (wildcard(),)))
        virtualizer.install_sfc(sfc, assignment=(4,))  # pass 2, stage 0
        fw = pipeline.stage(0).table(physical_table_name("firewall", 0))
        assert fw.entries[0].match["pass_id"] == 2

    def test_bad_assignment_length_rejected(self, virtualizer):
        sfc = _sfc(1, ("firewall", (wildcard(),)))
        with pytest.raises(DataPlaneError):
            virtualizer.install_sfc(sfc, assignment=(1, 2))

    def test_non_increasing_assignment_rejected(self, virtualizer):
        sfc = _sfc(
            1, ("firewall", (wildcard(),)), ("traffic_classifier", (wildcard(),))
        )
        with pytest.raises(DataPlaneError):
            virtualizer.install_sfc(sfc, assignment=(2, 2))

    def test_assignment_beyond_passes_rejected(self, virtualizer):
        sfc = _sfc(1, ("firewall", (wildcard(),)))
        with pytest.raises(ResourceExhaustedError):
            virtualizer.install_sfc(sfc, assignment=(10,))  # pass 4 > max 3

    def test_install_charges_resources(self, pipeline, virtualizer):
        rules = tuple(wildcard() for _ in range(5))
        sfc = _sfc(1, ("firewall", rules))
        virtualizer.install_sfc(sfc)
        res = pipeline.stage(0).resources
        assert res.entries_used == 5

    def test_failed_install_rolls_back(self, pipeline, virtualizer):
        # Overfill: stage 0 has 6 blocks x 1000 entries... shrink by filling
        # with another tenant first is slow; instead make the table reject
        # via resource exhaustion using many rules.
        capacity = pipeline.stage(0).resources
        too_many = tuple(
            wildcard() for _ in range(capacity.blocks_total * capacity.entries_per_block + 1)
        )
        sfc = _sfc(
            1,
            ("firewall", (wildcard(),)),
            ("traffic_classifier", too_many),
        )
        before = pipeline.total_entries()
        with pytest.raises((DataPlaneError, ResourceExhaustedError)):
            SFCVirtualizer(pipeline).install_sfc(sfc)
        assert pipeline.total_entries() == before
        assert pipeline.stage(0).resources.entries_used == 0


class TestUninstall:
    def test_uninstall_removes_rules_and_refunds(self, pipeline, virtualizer):
        sfc = _sfc(1, ("firewall", (wildcard(), wildcard())))
        virtualizer.install_sfc(sfc)
        virtualizer.uninstall_sfc(1)
        assert pipeline.total_entries() == 0
        assert pipeline.stage(0).resources.entries_used == 0
        with pytest.raises(DataPlaneError):
            virtualizer.uninstall_sfc(1)

    def test_uninstall_keeps_other_tenants(self, pipeline, virtualizer):
        virtualizer.install_sfc(_sfc(1, ("firewall", (wildcard(),))))
        virtualizer.install_sfc(_sfc(2, ("firewall", (wildcard(),))))
        virtualizer.uninstall_sfc(1)
        fw = pipeline.stage(0).table(physical_table_name("firewall", 0))
        assert fw.num_entries == 1
        assert fw.entries[0].match["tenant_id"] == 2

    def test_tenant_passes(self, virtualizer):
        virtualizer.install_sfc(
            _sfc(1, ("load_balancer", (wildcard(),)), ("firewall", (wildcard(),)))
        )
        assert virtualizer.tenant_passes(1) == 2
        with pytest.raises(DataPlaneError):
            virtualizer.tenant_passes(9)


class TestEndToEnd:
    def test_folded_chain_processes_in_order(self, pipeline, virtualizer):
        # LB -> FW for tenant 3: LB rewrites dst, then (pass 2) FW drops
        # rewritten traffic.
        sfc = _sfc(
            3,
            ("load_balancer", (wildcard("set_dst", dst_ip=123),)),
            ("firewall", (TableEntry(match={"dst_ip": (123, 0xFFFFFFFF)},
                                     action="drop", priority=5),)),
        )
        virtualizer.install_sfc(sfc)
        result = pipeline.process(Packet(tenant_id=3), trace=True)
        assert result.passes == 2
        assert result.packet.dst_ip == 123
        assert result.packet.dropped  # FW saw the *rewritten* packet on pass 2

    def test_other_tenant_unaffected(self, pipeline, virtualizer):
        sfc = _sfc(3, ("firewall", (wildcard("drop"),)))
        virtualizer.install_sfc(sfc)
        result = pipeline.process(Packet(tenant_id=4))
        assert result.delivered
