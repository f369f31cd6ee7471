"""Snapshot fidelity, usage accounting, and the multi-hop router."""

from repro.fabric.topology import link_key
from repro.globalopt.model import (
    FabricModel,
    SwitchModel,
    TenantFootprint,
    TenantPlan,
    Usage,
    route,
    snapshot_fabric,
)

from .conftest import chain, make_fabric


class TestSnapshot:
    def test_switches_mirror_topology_and_shard_actuals(self):
        fabric = make_fabric()
        for t in range(1, 6):
            assert fabric.admit(chain(t)).ok
        model = snapshot_fabric(fabric)
        assert sorted(model.switches) == fabric.topology.switch_names
        for name, sw in model.switches.items():
            shard = fabric.shards[name]
            spec = fabric.topology.nodes[name].spec
            assert sw.stages == spec.stages
            assert sw.total_blocks == spec.stages * spec.blocks_per_stage
            assert sw.used_blocks == sum(
                shard.state.blocks_at_stage(s) for s in range(spec.stages)
            )
            assert sw.used_backplane_gbps == shard.state.backplane_gbps
        for key, link in fabric.links.items():
            assert model.link_capacity[key] == link.capacity_gbps
            assert model.link_load[key] == link.load_gbps

    def test_tenants_and_current_plans_round_trip(self, fragmented):
        fabric, stitched = fragmented
        model = snapshot_fabric(fabric)
        assert sorted(model.tenants) == sorted(fabric.tenants)
        for tenant_id, record in fabric.tenants.items():
            foot = model.tenants[tenant_id]
            assert foot.nf_types == tuple(record.sfc.nf_types)
            assert foot.rules == tuple(record.sfc.rules)
            plan = model.current[tenant_id]
            assert plan.switches == tuple(
                seg.switch for seg in record.segments
            )
            assert plan.stitched == (len(record.segments) > 1)
        for tenant_id in stitched:
            plan = model.current[tenant_id]
            assert plan.stitched
            assert plan.split > 0
            assert plan.links

    def test_drained_switch_is_marked(self):
        fabric = make_fabric()
        fabric.drain("sw2")
        model = snapshot_fabric(fabric)
        assert model.switches["sw2"].drained
        assert "sw2" not in model.active


class TestDemandMath:
    def test_blocks_needed_consolidated(self):
        fabric = make_fabric()
        model = snapshot_fabric(fabric)
        name = model.active[0]
        epb = model.switches[name].entries_per_block
        assert model.blocks_needed((1,), name) == 1
        assert model.blocks_needed((epb, epb), name) == 2
        assert model.blocks_needed((), name) == 0

    def test_backplane_passes(self):
        fabric = make_fabric()
        model = snapshot_fabric(fabric)
        name = model.active[0]
        stages = model.switches[name].stages
        assert model.passes_needed(stages, name) == 1
        assert model.passes_needed(stages + 1, name) == 2
        assert model.backplane_needed(stages + 1, 2.0, name) == 4.0


class TestUsage:
    def test_from_current_seeds_exact_actuals(self, fragmented):
        fabric, _stitched = fragmented
        model = snapshot_fabric(fabric)
        usage = Usage.from_current(model)
        for name, sw in model.switches.items():
            assert usage.blocks[name] == sw.used_blocks
            assert usage.backplane[name] == sw.used_backplane_gbps
        for key, load in model.link_load.items():
            assert usage.link_load[key] == load

    def test_charge_release_round_trips(self, fragmented):
        fabric, stitched = fragmented
        model = snapshot_fabric(fabric)
        usage = Usage.from_current(model)
        before = (
            dict(usage.blocks),
            dict(usage.backplane),
            dict(usage.link_load),
        )
        plan = model.current[stitched[0]]
        usage.release(plan)
        usage.charge(plan)
        assert usage.blocks == before[0]
        assert usage.backplane == before[1]
        assert usage.link_load == before[2]


class TestRoute:
    def _line_model(self):
        """sw0 - sw1 - sw2 line: a multi-hop path is the only option."""
        switches = {
            name: SwitchModel(
                name=name, stages=4, virtual_stages=8, total_blocks=24,
                entries_per_block=100, capacity_gbps=60.0,
            )
            for name in ("sw0", "sw1", "sw2")
        }
        caps = {
            link_key("sw0", "sw1"): 10.0,
            link_key("sw1", "sw2"): 10.0,
        }
        return FabricModel(
            switches=switches,
            tenants={},
            current={},
            link_capacity=caps,
            adjacency={
                "sw0": ("sw1",), "sw1": ("sw0", "sw2"), "sw2": ("sw1",)
            },
        )

    def test_multi_hop_path_over_non_adjacent_switches(self):
        model = self._line_model()
        usage = Usage(model)
        path = route(model, usage, "sw0", "sw2", 5.0)
        assert path == (link_key("sw0", "sw1"), link_key("sw1", "sw2"))

    def test_saturated_link_blocks_the_route(self):
        model = self._line_model()
        usage = Usage(model)
        usage.link_load[link_key("sw1", "sw2")] = 9.0
        assert route(model, usage, "sw0", "sw2", 5.0) is None
        assert route(model, usage, "sw0", "sw2", 1.0) is not None

    def test_same_switch_needs_no_route(self):
        model = self._line_model()
        assert route(model, Usage(model), "sw0", "sw0", 1.0) is None


def test_plan_demands_splits_the_chain_at_the_cut():
    switches = {
        "sw0": SwitchModel(
            name="sw0", stages=4, virtual_stages=8, total_blocks=24,
            entries_per_block=100, capacity_gbps=60.0,
        ),
        "sw1": SwitchModel(
            name="sw1", stages=4, virtual_stages=8, total_blocks=24,
            entries_per_block=100, capacity_gbps=60.0,
        ),
    }
    foot = TenantFootprint(
        tenant_id=7, nf_types=(1, 2, 3, 4, 5), rules=(4, 4, 4, 4, 4),
        bandwidth_gbps=2.0,
    )
    model = FabricModel(
        switches=switches, tenants={7: foot}, current={},
        link_capacity={}, adjacency={},
    )
    plan = TenantPlan(tenant_id=7, switches=("sw0", "sw1"), split=3)
    demands = model.plan_demands(plan)
    assert demands == [("sw0", (4, 4, 4), 3), ("sw1", (4, 4), 2)]
