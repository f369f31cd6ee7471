"""End-to-end re-optimization through the orchestrator, the telemetry
counters on the Prometheus page, the frontend's ``POST /v1/reoptimize``
endpoint, and the typed refusal of bad pass inputs at every seam."""

import json
import urllib.error
import urllib.request

import pytest

from repro.cli import main
from repro.errors import FrontendError, SolverError
from repro.frontend import FrontendServer, HttpFrontendClient
from repro.telemetry.export import render_prometheus


class TestOrchestrator:
    def test_reoptimize_consolidates_a_fragmented_fleet(self, fragmented):
        fabric, stitched = fragmented
        report = fabric.reoptimize(mode="greedy")
        assert report.ok
        assert report.stitched_before == len(stitched)
        assert report.stitched_after < report.stitched_before
        assert report.stitch_reduction > 0
        assert report.links_after < report.links_before
        assert fabric.check_invariant() == []
        summary = report.summary()
        assert summary["invariant_ok"]
        assert summary["stitch_reduction"] == report.stitch_reduction
        assert "reoptimize[greedy]" in report.describe()

    def test_summary_reports_the_pass_wall_time(self, fragmented):
        fabric, _stitched = fragmented
        report = fabric.reoptimize(mode="greedy")
        assert report.migration is not None
        summary = report.summary()
        assert summary["wall_s"] == report.wall_s >= report.solve_s
        assert summary["migration_wall_s"] == report.migration.wall_s
        assert report.wall_s >= report.migration.wall_s

    def test_dry_run_touches_nothing(self, fragmented):
        fabric, stitched = fragmented
        before = fabric.digest()
        report = fabric.reoptimize(mode="greedy", execute=False)
        assert not report.executed
        assert report.migration is None
        assert report.moves_planned > 0
        assert report.stitched_after == report.stitched_before
        assert fabric.digest() == before


class TestTelemetry:
    def test_counters_reach_the_prometheus_page(self, fragmented):
        fabric, _stitched = fragmented
        report = fabric.reoptimize(mode="greedy")
        assert report.ok and report.migration is not None
        page = render_prometheus(fabric.metrics)
        assert "sfp_globalopt_runs_total 1" in page
        assert (
            f"sfp_globalopt_moves_planned_total {report.moves_planned}"
            in page
        )
        assert (
            f"sfp_globalopt_moves_executed_total {report.migration.executed}"
            in page
        )
        assert "sfp_globalopt_solve_s_count 1" in page
        assert 'sfp_globalopt_solve_s_bucket{le="+Inf"} 1' in page
        assert "sfp_globalopt_step_s_count" in page
        assert "sfp_globalopt_migrations_tenant_" in page

    def test_skipped_moves_are_counted(self, fragmented):
        fabric, _stitched = fragmented
        fabric.reoptimize(mode="greedy", max_moves=0)
        counters = fabric.metrics.snapshot()["counters"]
        assert counters.get("globalopt.moves_skipped", 0) > 0
        assert counters.get("globalopt.moves_executed", 0) == 0


class TestFrontend:
    @pytest.fixture
    def served(self, fragmented):
        fabric, stitched = fragmented
        server = FrontendServer(fabric, port=0).start()
        try:
            yield HttpFrontendClient(server.url, timeout=10.0), stitched
        finally:
            server.close(timeout=10.0)

    def test_post_reoptimize_runs_a_pass(self, served):
        client, stitched = served
        body = client.reoptimize(mode="greedy")
        assert body["ok"]
        assert body["stitched_before"] == len(stitched)
        assert body["stitch_reduction"] > 0
        assert body["moves_executed"] == body["stitch_reduction"]

    def test_post_reoptimize_dry_run(self, served):
        client, stitched = served
        body = client.reoptimize(mode="greedy", execute=False)
        assert body["ok"]
        assert not body["executed"]
        assert body["moves_planned"] > 0
        assert body["stitched_after"] == len(stitched)

    def test_bad_mode_is_a_client_error(self, served):
        client, _stitched = served
        with pytest.raises(FrontendError, match="-> 400"):
            client.reoptimize(mode="tabu-search")


BAD_PASS_INPUTS = [
    ({"min_benefit": float("nan")}, "min_benefit must be a finite number, got nan"),
    ({"min_benefit": float("inf")}, "min_benefit must be a finite number, got inf"),
    ({"max_moves": True}, "max_moves must be None or an int >= 0, got True"),
    ({"max_moves": 2.7}, "max_moves must be None or an int >= 0, got 2.7"),
    ({"max_moves": -1}, "max_moves must be None or an int >= 0, got -1"),
]


class TestBadInput:
    @pytest.mark.parametrize(
        "options, message", BAD_PASS_INPUTS, ids=[m for _, m in BAD_PASS_INPUTS]
    )
    def test_pass_refuses_out_of_range_inputs(self, fragmented, options, message):
        fabric, _stitched = fragmented
        before = fabric.digest()
        with pytest.raises(SolverError) as err:
            fabric.reoptimize(mode="greedy", **options)
        assert str(err.value) == message
        assert fabric.digest() == before
        assert fabric.metrics.snapshot()["counters"].get("globalopt.runs", 0) == 0

    def test_cli_refuses_a_nan_min_benefit(self, capsys):
        code = main([
            "reoptimize", "--quick", "--no-dataplane", "--min-benefit", "nan",
        ])
        assert code == 2
        assert capsys.readouterr().err == (
            "sfp: error: min_benefit must be a finite number, got nan\n"
        )


#: Raw bodies (``NaN`` is what ``json.loads`` accepts) and the 400's error.
BAD_BODIES = [
    (
        '{"execute": "false"}',
        "bad reoptimize body: execute must be a JSON bool, got 'false'",
    ),
    (
        '{"min_benefit": NaN}',
        "bad reoptimize body: min_benefit must be a finite number, got nan",
    ),
    (
        '{"max_moves": true}',
        "bad reoptimize body: max_moves must be None or an int >= 0, got True",
    ),
    (
        '{"max_moves": 2.7}',
        "bad reoptimize body: max_moves must be None or an int >= 0, got 2.7",
    ),
    (
        '{"max_moves": -1}',
        "bad reoptimize body: max_moves must be None or an int >= 0, got -1",
    ),
    ('{"mode": ["greedy"]}', "bad reoptimize mode ['greedy']"),
]


@pytest.mark.parametrize("raw, error", BAD_BODIES, ids=[raw for raw, _ in BAD_BODIES])
def test_bad_reoptimize_body_is_a_typed_400(fragmented, raw, error):
    fabric, _stitched = fragmented
    before = fabric.digest()
    server = FrontendServer(fabric, port=0).start()
    try:
        request = urllib.request.Request(
            f"{server.url}/v1/reoptimize", data=raw.encode(), method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10.0)
        assert excinfo.value.code == 400
        assert json.loads(excinfo.value.read()) == {"error": error}
    finally:
        server.close(timeout=10.0)
    assert fabric.digest() == before
