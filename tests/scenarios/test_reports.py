"""The None-not-NaN reporting convention: phases and campaigns with zero
successful admits must report explicit ``None`` percentiles,
serialize to JSON, and describe themselves without crashing."""

import json

import numpy as np

from repro.controller.events import ChurnReport
from repro.scenarios.dsl import (
    FaultAction,
    LoadCurve,
    PhaseSpec,
    TopologySpec,
)
from repro.scenarios.runner import run_campaign
from tests.scenarios.conftest import TINY_SWITCH, make_tiny_spec


def _dead_switch_spec():
    """A one-switch campaign whose only switch is drained the instant the
    phase opens: every arrival is rejected, so zero admits ever succeed."""
    return make_tiny_spec(
        name="dead-switch",
        description="all arrivals rejected: the sole switch drains at t=0",
        topology=TopologySpec(
            kind="full_mesh", num_switches=1, switch=TINY_SWITCH,
            max_recirculations=1, link_capacity_gbps=100.0,
        ),
        phases=(
            PhaseSpec(
                name="dead", duration_s=6.0,
                load=LoadCurve(kind="constant", rate_per_s=4.0),
                mean_lifetime_s=5.0,
                faults=(FaultAction(at_s=0.0, kind="drain", switch="sw0"),),
            ),
        ),
    )


class TestZeroAdmitCampaign:
    def test_phase_percentiles_are_explicit_none(self):
        _, report = run_campaign(_dead_switch_spec())
        phase = report.phases[0]
        summary = phase.summary()
        assert summary["admitted"] == 0.0
        assert summary["admit_p50_ms"] is None
        assert summary["admit_p99_ms"] is None
        assert report.ok  # rejection is not an invariant violation

    def test_campaign_summary_serializes_and_describes(self):
        _, report = run_campaign(_dead_switch_spec())
        text = json.dumps(report.summary())
        assert "NaN" not in text
        assert report.summary()["admit_p50_ms"] is None
        assert "n/a" in report.phases[0].describe()
        assert "invariant OK" in report.describe()

    def test_no_nan_anywhere_in_the_summary_tree(self):
        _, report = run_campaign(_dead_switch_spec())

        def walk(node):
            if isinstance(node, dict):
                for value in node.values():
                    walk(value)
            elif isinstance(node, list):
                for value in node:
                    walk(value)
            elif isinstance(node, float):
                assert not np.isnan(node)

        walk(report.summary())


class TestMergedChurnReports:
    def test_merged_empty_is_a_clean_zero_report(self):
        merged = ChurnReport.merged([])
        assert merged.num_events == 0
        summary = merged.summary()
        assert summary["admit_p50_ms"] is None
        assert summary["admit_p99_ms"] is None
        json.dumps(summary)
        assert "no successful admits" in merged.describe()

    def test_merged_concatenates_results_and_wall_time(self, tiny_spec):
        _, report = run_campaign(tiny_spec)
        merged = ChurnReport.merged(p.churn for p in report.phases)
        assert merged.num_events == sum(
            p.churn.num_events for p in report.phases
        )
        assert merged.summary()["admitted"] >= 1.0

