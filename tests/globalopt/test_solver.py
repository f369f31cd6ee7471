"""Solver behaviour: determinism, mode dispatch, defragmentation against
live usage, and the balance pass."""

import pytest

from repro.globalopt.model import snapshot_fabric
from repro.globalopt.solver import solve_global, solve_greedy, solve_ilp

from .conftest import chain, make_fabric


def _stitched_plans(solution, model):
    return {
        tid for tid, plan in solution.plans.items() if plan.stitched
    }


class TestModes:
    def test_bad_mode_raises(self, fragmented):
        fabric, _ = fragmented
        model = snapshot_fabric(fabric)
        with pytest.raises(ValueError, match="unknown solve mode"):
            solve_global(model, mode="simulated-annealing")

    def test_auto_picks_ilp_for_small_fleets(self, fragmented):
        fabric, _ = fragmented
        model = snapshot_fabric(fabric)
        assert solve_global(model, mode="auto").mode == "ilp"
        assert solve_global(model, mode="greedy").mode == "greedy"
        assert solve_global(model, mode="ilp").mode == "ilp"

    def test_empty_fleet_solves_to_nothing(self):
        model = snapshot_fabric(make_fabric())
        solution = solve_global(model, mode="auto")
        assert solution.plans == {}


class TestGreedy:
    def test_unstitches_the_fragmented_fleet(self, fragmented):
        fabric, stitched = fragmented
        model = snapshot_fabric(fabric)
        solution = solve_greedy(model)
        for tenant_id in stitched:
            plan = solution.plans[tenant_id]
            assert not plan.stitched
            # Stay-home preference: the target is one of the switches the
            # tenant already half-occupies (cheapest make-before-break).
            assert plan.switches[0] in model.current[tenant_id].switches

    def test_settled_single_home_tenants_stay_put(self, fragmented):
        fabric, stitched = fragmented
        model = snapshot_fabric(fabric)
        solution = solve_greedy(model)
        for tenant_id, current in model.current.items():
            if tenant_id in stitched:
                continue
            assert solution.plans[tenant_id] == current

    def test_deterministic_across_calls(self, fragmented):
        fabric, _ = fragmented
        model = snapshot_fabric(fabric)
        a = solve_greedy(model)
        b = solve_greedy(model)
        assert a.plans == b.plans
        assert a.kept == b.kept

    def test_full_fleet_keeps_stitched_tenants(self):
        """With zero headroom anywhere the stitched tenants stay stitched
        (kept), never dropped."""
        fabric = make_fabric()
        tenant_id = 1
        while True:
            ok = fabric.admit(
                chain(tenant_id, nf_types=(1,), rules=(1,), bandwidth_gbps=7.2)
            ).ok
            if not ok:
                break
            tenant_id += 1
        for k in range(4):
            fabric.admit(
                chain(
                    500 + k, nf_types=(1, 2, 3, 4, 5), rules=(4,) * 5,
                    bandwidth_gbps=2.0,
                )
            )
        # No fillers evicted: nothing can be consolidated.
        model = snapshot_fabric(fabric)
        stitched = [t for t, p in model.current.items() if p.stitched]
        assert stitched
        solution = solve_greedy(model)
        assert set(solution.kept) == set(stitched)
        for tenant_id in stitched:
            assert solution.plans[tenant_id] == model.current[tenant_id]


class TestBalancePass:
    def test_hot_switch_sheds_load_to_the_cold_one(self):
        """All tenants piled on one switch via a modulo-free hash trick:
        admit to a 2-switch fabric where one switch is drained, undrain,
        and let the solver's balance pass spread the load."""
        fabric = make_fabric(num_switches=2)
        fabric.drain("sw1")
        for t in range(1, 7):
            assert fabric.admit(
                chain(t, nf_types=(1,), rules=(2,), bandwidth_gbps=6.0)
            ).ok
        fabric.undrain("sw1")
        model = snapshot_fabric(fabric)
        assert all(
            plan.switches == ("sw0",) for plan in model.current.values()
        )
        solution = solve_greedy(model)
        moved = [
            tid
            for tid, plan in solution.plans.items()
            if plan.switches == ("sw1",)
        ]
        assert moved, "balance pass never moved anything off the hot switch"
        assert any("balance:" in note for note in solution.notes)


class TestIlp:
    def test_ilp_unstitches_and_reports_status(self, fragmented):
        fabric, stitched = fragmented
        model = snapshot_fabric(fabric)
        solution = solve_ilp(model)
        assert solution is not None
        assert solution.ilp_status is not None
        for tenant_id in stitched:
            assert not solution.plans[tenant_id].stitched

    def test_every_tenant_remains_placed(self, fragmented):
        fabric, _ = fragmented
        model = snapshot_fabric(fabric)
        for mode in ("ilp", "greedy"):
            solution = solve_global(model, mode=mode)
            assert sorted(solution.plans) == sorted(model.tenants)
