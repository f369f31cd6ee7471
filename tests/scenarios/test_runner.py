"""Runner semantics: phase-boundary audits, drain/undrain dispatch,
deterministic replay, and campaign report plumbing."""

import json

import pytest

from repro.errors import ScenarioError
from repro.controller.events import ChurnEvent, EventKind
from repro.scenarios.compile import CompiledCampaign, compile_scenario
from repro.scenarios.runner import ScenarioRunner, build_fabric, run_campaign


class TestRun:
    def test_phases_audit_clean_and_in_order(self, tiny_spec):
        fabric, report = run_campaign(tiny_spec)
        assert [p.name for p in report.phases] == ["fill", "fault", "settle"]
        assert report.ok
        for phase in report.phases:
            assert phase.invariant_problems == []
            assert phase.digest  # the boundary digest is always recorded
        assert report.final_digest == report.phases[-1].digest
        assert fabric.check_invariant() == []

    def test_drains_are_dispatched_to_the_fabric(self, tiny_spec):
        fabric, report = run_campaign(tiny_spec)
        fault = report.phases[1].churn
        assert fault.drains == 1
        assert fault.undrains == 1
        assert report.overall.drains == 1
        counters = fabric.metrics_snapshot()["counters"]
        assert counters["drains"] == 1
        assert counters["scenario.phases"] == 3
        # sw1 was undrained again, so nothing stays drained at the end.
        assert sorted(fabric.active_switches) == fabric.topology.switch_names

    def test_replay_is_deterministic(self, tiny_spec):
        _, first = run_campaign(tiny_spec)
        _, second = run_campaign(tiny_spec)
        assert first.trace_digest == second.trace_digest
        assert first.final_digest == second.final_digest
        assert [p.digest for p in first.phases] == [
            p.digest for p in second.phases
        ]

    def test_seed_override_changes_the_stream(self, tiny_spec):
        _, base = run_campaign(tiny_spec)
        _, other = run_campaign(tiny_spec, seed=tiny_spec.seed + 7)
        assert other.seed == tiny_spec.seed + 7
        assert other.trace_digest != base.trace_digest

    def test_summary_is_json_serializable(self, tiny_spec):
        _, report = run_campaign(tiny_spec)
        text = json.dumps(report.summary())
        assert "invariant_ok" in text
        merged = report.overall
        assert merged.num_events == sum(
            p.churn.num_events for p in report.phases
        )

    def test_event_before_first_marker_is_an_error(self, tiny_spec):
        compiled = compile_scenario(tiny_spec)
        arrival = next(e for e in compiled.events if e.kind == "arrival")
        headless = CompiledCampaign(
            spec=tiny_spec, seed=compiled.seed, events=(arrival,)
        )
        runner = ScenarioRunner(build_fabric(tiny_spec))
        with pytest.raises(ScenarioError, match="precedes the first phase"):
            runner.run(headless)

    def test_wal_dir_journal_recovers(self, tiny_spec, tmp_path):
        from repro.durability import recover_fabric

        fabric, report = run_campaign(tiny_spec, wal_dir=tmp_path)
        recovered, recovery = recover_fabric(tmp_path, with_dataplane=False)
        assert recovery.ok, recovery.problems
        assert recovered.digest() == fabric.digest()


class TestDescribe:
    def test_describe_mentions_every_phase(self, tiny_spec):
        _, report = run_campaign(tiny_spec)
        text = report.describe()
        for phase in report.phases:
            assert f"[{phase.name}]" in text
        assert "invariant OK" in text


class TestMarkerlessEvent:
    def test_marker_only_campaign_yields_empty_phases(self, tiny_spec):
        markers = tuple(
            ChurnEvent(
                time_s=start, seq=i, kind=EventKind.PHASE, phase=name
            )
            for i, (name, start, _end) in enumerate(tiny_spec.phase_bounds())
        )
        campaign = CompiledCampaign(spec=tiny_spec, seed=0, events=markers)
        report = ScenarioRunner(build_fabric(tiny_spec)).run(campaign)
        assert [p.name for p in report.phases] == [
            p.name for p in tiny_spec.phases
        ]
        assert all(p.churn.num_events == 0 for p in report.phases)
        assert report.ok
