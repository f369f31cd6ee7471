"""Tests for the EXPERIMENTS.md generator (structure only; every figure's
smoke run is checked by ``test_figure_contract.py``)."""


from repro.experiments import fig4_throughput
from repro.experiments.report import FigureReport, _markdown_table, run_figure


def test_markdown_table_shape():
    result = fig4_throughput.run(packet_sizes=(64, 1500), seed=1)
    table = _markdown_table(result)
    lines = table.splitlines()
    assert lines[0].startswith("| packet_bytes")
    assert lines[1].startswith("|---")
    assert len(lines) == 2 + len(result.rows)


def test_fig4_report_passes_checks():
    report = run_figure(4, "quick", seed=1)
    assert report.ok, [c for c in report.checks if not c[1]]
    assert report.figure == "Fig. 4"
    assert "10x" in report.paper_claim or "10 times" in report.paper_claim


def test_fig5_report_passes_checks():
    report = run_figure(5, "quick", seed=1)
    assert report.ok


def test_figure_report_ok_aggregates():
    result = fig4_throughput.run(packet_sizes=(64,), seed=1)
    good = FigureReport("f", "claim", result, [("a", True), ("b", True)])
    bad = FigureReport("f", "claim", result, [("a", True), ("b", False)])
    assert good.ok and not bad.ok
