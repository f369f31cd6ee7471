"""Tests for the sfp command-line interface."""

import json

import pytest

from repro.cli import main
from tests.scenarios.conftest import make_tiny_spec, time_bound


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


def test_demo_traces_a_packet(capsys):
    assert main(["demo", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "delivered=True" in out
    assert "pass 1 stage 0" in out


def test_place_greedy(capsys):
    code = main([
        "place", "--algorithm", "greedy", "--num-sfcs", "8", "--seed", "3",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "feasibility: OK" in out
    assert "objective" in out


def test_place_appro(capsys):
    code = main([
        "place", "--algorithm", "appro", "--num-sfcs", "5", "--seed", "3",
    ])
    assert code == 0
    assert "feasibility: OK" in capsys.readouterr().out


def test_quick_is_an_error_where_nothing_reads_it(capsys):
    """Only ``fabric`` and ``reoptimize`` shrink a churn stream."""
    with pytest.raises(SystemExit) as exc:
        main(["place", "--quick"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --quick" in capsys.readouterr().err


def test_one_switch_fabric_replays_churn(capsys):
    assert main(["fabric", "--quick", "--seed", "11", "--switches", "1"]) == 0
    out = capsys.readouterr().out
    assert "fabric: 1 switches, 0 links" in out
    assert "events/s" in out
    assert "p99" in out
    assert "live tenants:" in out
    assert "(0 stitched across switches)" in out
    assert "fabric invariant: OK" in out


def test_fabric_replays_churn_and_drains(capsys):
    code = main([
        "fabric", "--quick", "--seed", "11", "--switches", "4", "--drain",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "fabric: 4 switches, 6 links" in out
    assert "events/s" in out
    assert "live tenants:" in out
    assert "fabric invariant: OK" in out
    assert "drained sw" in out
    assert "re-homed chains forward end-to-end" in out
    assert "fabric invariant after drain: OK" in out


def test_trace_prints_span_tree_and_postcard(capsys, tmp_path):
    chrome = tmp_path / "trace.json"
    jsonl = tmp_path / "spans.jsonl"
    code = main([
        "trace", "--chrome", str(chrome), "--jsonl", str(jsonl),
    ])
    out = capsys.readouterr().out
    assert code == 0
    # The connected control-plane tree, fabric down to the runtime writes.
    assert "fabric.admit" in out
    assert "controller.admit" in out
    assert "install.install" in out
    assert "runtime.write" in out
    # The INT postcard shows recirculation passes.
    assert "postcard tenant=1" in out
    assert "pass 1 stage 0" in out
    assert "pass 2 stage 0" in out

    import json

    events = json.loads(chrome.read_text())
    assert any(e["name"] == "runtime.write" for e in events)
    spans = [json.loads(line) for line in jsonl.read_text().splitlines()]
    assert len({s["trace_id"] for s in spans}) == 1


def test_metrics_renders_prometheus_text(capsys):
    code = main([
        "fabric", "--quick", "--switches", "1", "--rate", "3", "--seed", "2",
        "--prometheus", "-",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "# TYPE sfp_admitted_total counter" in out
    assert "# TYPE sfp_telemetry_packets_seen gauge" in out
    assert 'sfp_op_latency_s_admit_bucket{le="+Inf"}' in out
    assert "sfp_op_latency_s_admit_count" in out
    seen = next(
        line for line in out.splitlines()
        if line.startswith("sfp_telemetry_packets_seen ")
    )
    assert float(seen.split()[1]) > 0


def test_metrics_writes_file(capsys, tmp_path):
    out_file = tmp_path / "metrics.prom"
    code = main([
        "fabric", "--quick", "--switches", "1", "--rate", "2", "--seed", "3",
        "--prometheus", str(out_file),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert str(out_file) in out
    assert "sfp_admitted_total" in out_file.read_text()


def _journal_a_controller(wal_dir) -> None:
    """A standalone controller's durability directory: the input of the
    controller branch of `sfp recover` / `sfp checkpoint`."""
    from dataclasses import replace

    from repro.controller import ChurnConfig, ChurnEngine, SfcController, synthesize_churn
    from repro.durability import ControllerDurability
    from repro.experiments.config import PAPER_SWITCH, PAPER_WORKLOAD
    from repro.traffic.workload import make_instance

    workload = replace(PAPER_WORKLOAD, num_sfcs=0)
    controller = SfcController.for_instance(
        make_instance(workload, switch=PAPER_SWITCH, max_recirculations=2, rng=7)
    )
    durability = ControllerDurability(wal_dir).attach(controller)
    config = ChurnConfig(duration_s=5.0, arrival_rate_per_s=8.0, workload=workload)
    ChurnEngine(controller).replay(synthesize_churn(config, rng=7))
    durability.close()


def test_controller_journals_then_recovers(capsys, tmp_path):
    wal_dir = tmp_path / "durability"
    _journal_a_controller(wal_dir)
    assert (wal_dir / "wal.jsonl").exists()

    code = main(["recover", str(wal_dir)])
    out = capsys.readouterr().out
    assert code == 0
    assert "recovered controller:" in out
    assert "— ok" in out
    assert "live tenants:" in out
    assert "state digest:" in out


def test_checkpoint_compacts_the_wal(capsys, tmp_path):
    wal_dir = tmp_path / "durability"
    _journal_a_controller(wal_dir)

    code = main(["checkpoint", str(wal_dir)])
    out = capsys.readouterr().out
    assert code == 0
    assert "checkpointed controller at lsn" in out
    assert "checkpoints on disk:" in out
    # Recovery's post-verify checkpoint compacts the journal down to zero
    # records past the checkpoint LSN.
    assert "wal: 0 records past lsn" in out


def test_fabric_journals_then_recovers(capsys, tmp_path):
    wal_dir = tmp_path / "durability"
    code = main([
        "fabric", "--quick", "--seed", "7", "--switches", "3",
        "--wal-dir", str(wal_dir), "--no-dataplane",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert f"journaling to {wal_dir}" in out
    assert (wal_dir / "fabric.wal.jsonl").exists()
    assert not (wal_dir / "shards").exists()

    code = main(["recover", str(wal_dir)])
    out = capsys.readouterr().out
    assert code == 0
    assert "recovered fabric:" in out
    assert "— ok" in out
    assert "fabric invariant: OK" in out


def test_one_switch_fabric_journals_a_fabric_directory(capsys, tmp_path):
    wal_dir = tmp_path / "durability"
    assert main([
        "fabric", "--quick", "--seed", "7", "--switches", "1",
        "--wal-dir", str(wal_dir),
    ]) == 0
    capsys.readouterr()
    assert main(["checkpoint", str(wal_dir)]) == 0
    out = capsys.readouterr().out
    assert "checkpointed fabric at lsn" in out
    assert "wal: 0 records past lsn" in out


@pytest.mark.parametrize(
    "campaign,admin",
    [("defrag-cadence", "4 reoptimizes"), ("correlated-failure", "2 drains, 2 undrains")],
)
def test_fabric_replays_a_compiled_campaign(capsys, tmp_path, campaign, admin):
    trace = tmp_path / "campaign.jsonl"
    assert main(["scenario", "compile", campaign, "--smoke", "-o", str(trace)]) == 0
    capsys.readouterr()
    code = main(["fabric", "--trace", str(trace), "--no-dataplane"])
    out = capsys.readouterr().out
    assert code == 0
    assert admin in out
    assert "fabric invariant: OK" in out


def _bad_line(record: dict, defect: str) -> str:
    if defect == "not-json":
        return '{"time_s": 0.5, "seq": '
    if defect == "not-an-object":
        return "[1, 2, 3]"
    if defect == "unknown-kind":
        record["kind"] = "explode"
    elif defect == "missing-seq":
        del record["seq"]
    else:  # wrong-type
        record["tenant_id"] = [7]
    return json.dumps(record)


DEFECTS = {
    "not-json": "not JSON",
    "not-an-object": "expected a JSON object",
    "unknown-kind": "'explode' is not a valid EventKind",
    "missing-seq": "missing field 'seq'",
    "wrong-type": "int()",
}


@pytest.mark.parametrize("reader", ["load_events", "load_campaign", "sfp-fabric"])
@pytest.mark.parametrize("defect", sorted(DEFECTS))
def test_malformed_trace_line_is_a_typed_error(capsys, tmp_path, reader, defect):
    from repro.errors import WorkloadError
    from repro.scenarios import compile_scenario, load_campaign, save_campaign
    from repro.controller import load_events

    path = tmp_path / "trace.jsonl"
    save_campaign(path, compile_scenario(make_tiny_spec()))
    lines = path.read_text().splitlines()
    lines[3] = _bad_line(json.loads(lines[3]), defect)
    path.write_text("\n".join(lines) + "\n")
    where = f"{path}, line 4: "
    if reader == "sfp-fabric":
        assert main(["fabric", "--trace", str(path), "--no-dataplane"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"sfp: error: {where}")
        assert DEFECTS[defect] in captured.err
        assert captured.err.count("\n") == 1
    else:
        loader = load_events if reader == "load_events" else load_campaign
        with pytest.raises(WorkloadError) as excinfo:
            loader(path)
        assert str(excinfo.value).startswith(where)
        assert DEFECTS[defect] in str(excinfo.value)


def test_recover_rejects_a_directory_without_a_manifest(capsys, tmp_path):
    assert main(["recover", str(tmp_path / "nowhere")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("sfp: error: no ") and " in " in err


@pytest.mark.parametrize("name", ["least-backplane", "modulo"])
def test_recover_refuses_a_manifest_naming_a_deleted_partitioner(
    capsys, tmp_path, name
):
    wal_dir = tmp_path / "durability"
    assert main([
        "fabric", "--quick", "--switches", "2", "--no-dataplane",
        "--wal-dir", str(wal_dir),
    ]) == 0
    capsys.readouterr()
    manifest_path = wal_dir / "MANIFEST.json"
    manifest = json.loads(manifest_path.read_text())
    manifest_path.write_text(json.dumps({**manifest, "partitioner": name}))
    assert main(["recover", str(wal_dir)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("sfp: error: manifest key 'partitioner'")
    assert name in captured.err
    assert captured.err.count("\n") == 1


def test_scenario_list_names_every_campaign(capsys):
    from repro.scenarios import campaign_names

    assert main(["scenario", "list"]) == 0
    out = capsys.readouterr().out
    for name in campaign_names():
        assert name in out
    assert "phases over" in out


def test_scenario_run_smoke_audits_every_phase(capsys):
    code = main(["scenario", "run", "steady-state", "--smoke"])
    out = capsys.readouterr().out
    assert code == 0
    assert "campaign 'steady-state'" in out
    assert "[warmup]" in out and "[steady]" in out and "[cooldown]" in out
    assert "invariant OK" in out
    assert "live tenants:" in out


def test_scenario_run_traffic_implies_the_dataplane(capsys):
    assert main(["scenario", "run", "steady-state", "--smoke", "--traffic", "4"]) == 0
    out = capsys.readouterr().out
    assert "delivered @" in out
    assert "invariant OK" in out


def test_scenario_run_needs_a_name_or_spec(capsys):
    assert main(["scenario", "run"]) == 2
    assert "NAME or --spec" in capsys.readouterr().err


def _nan_rate_spec() -> str:
    record = make_tiny_spec().to_dict()
    record["phases"][0]["load"]["rate_per_s"] = float("nan")
    return json.dumps(record)


def _partitioner_spec(name: str) -> str:
    return json.dumps({**make_tiny_spec().to_dict(), "partitioner": name})


@pytest.mark.parametrize(
    "text,reason",
    [
        ('{"name": "bad", "phases": [', "unparseable scenario JSON"),
        ('{"name": "bad"}', "missing key 'topology'"),
        (_nan_rate_spec(), "rate_per_s must be a finite number"),
        (_partitioner_spec("least-backplane"), "scenario key 'partitioner'"),
        (_partitioner_spec("modulo"), "scenario key 'partitioner'"),
    ],
    ids=["broken-json", "missing-key", "nan-rate", "least-backplane", "modulo"],
)
def test_scenario_run_reports_a_bad_spec_in_one_line(capsys, tmp_path, text, reason):
    spec = tmp_path / "bad.json"
    spec.write_text(text)
    with time_bound(10.0):
        assert main(["scenario", "run", "--spec", str(spec)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("sfp: error: ")
    assert reason in captured.err
    assert captured.err.count("\n") == 1


def test_scenario_compile_writes_a_verifiable_trace(capsys, tmp_path):
    from repro.scenarios import load_campaign

    out_path = tmp_path / "trace.jsonl"
    code = main([
        "scenario", "compile", "flash-crowd", "--smoke", "-o", str(out_path),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert str(out_path) in out
    campaign = load_campaign(out_path)
    assert campaign.spec.name == "flash-crowd"
    assert campaign.num_events > 0


def test_scenario_run_from_spec_file_with_wal(capsys, tmp_path):
    from repro.scenarios import get_campaign, save_spec

    spec_path = tmp_path / "campaign.json"
    save_spec(spec_path, get_campaign("correlated-failure").shrunk(0.2))
    wal_dir = tmp_path / "durability"
    code = main([
        "scenario", "run", "--spec", str(spec_path),
        "--wal-dir", str(wal_dir),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "2 drains" in out
    assert (wal_dir / "fabric.wal.jsonl").exists()

    code = main(["recover", str(wal_dir)])
    out = capsys.readouterr().out
    assert code == 0
    assert "recovered fabric:" in out
    assert "fabric invariant: OK" in out


def test_fig5_smoke(capsys):
    assert main(["fig", "5", "--scale", "smoke", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("## Fig. 5 — PASS")
    assert "341" in out


def test_fig_without_a_seed_prints_the_same_twice(capsys):
    outputs = []
    for _ in range(2):
        assert main(["fig", "11", "--scale", "smoke"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_fig_prints_its_report_section(capsys, monkeypatch):
    """``sfp fig 10`` prints the section ``sfp report`` writes for Fig. 10.
    Both read the session's smoke run, so the comparison is of what each
    asks for (figure, scale, seed) and how it renders it."""
    from repro.experiments import report
    from tests.experiments.smoke import SEED, smoke_report

    def cached(number, scale, seed):
        assert (scale, seed) == ("smoke", SEED)
        return smoke_report(number)

    monkeypatch.setattr(report, "run_figure", cached)
    monkeypatch.setattr(report, "FIGURES", {10: report.FIGURES[10]})
    assert main(["fig", "10", "--scale", "smoke"]) == 0
    section = capsys.readouterr().out
    text = report.generate_report("smoke", SEED)
    assert section.startswith("## Fig. 10 — PASS")
    assert "\n" + section.rstrip("\n") + "\n\nAll shape checks passed." in text


@pytest.mark.parametrize("argv", [
    ["fig", "12"], ["fig", "x"], ["fig", "5", "--scale", "full"],
    ["report", "--scale", "full"],
])
def test_unknown_figure_or_scale_is_one_line(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)  # where a report would be written
    assert main(argv) == 2
    assert not list(tmp_path.iterdir())
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("sfp: error: ")
    assert captured.err.count("\n") == 1


def test_serve_demo_mode_drives_the_front_end(capsys):
    code = main([
        "serve", "--port", "0", "--switches", "3", "--no-dataplane",
        "--demo-events", "25", "--seed", "7",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "serving 3 switches on http://" in out
    assert "one worker per shard" in out
    assert "demo: 25/25 intents accepted" in out
    assert "fabric invariant after drain: OK" in out


def test_serve_journals_and_recovers(capsys, tmp_path):
    wal_dir = tmp_path / "serve-wal"
    code = main([
        "serve", "--port", "0", "--switches", "2", "--no-dataplane",
        "--wal-dir", str(wal_dir), "--demo-events", "20", "--seed", "3",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert f"journaling to {wal_dir} (fsync=batch)" in out
    assert (wal_dir / "fabric.wal.jsonl").exists()
    # Graceful shutdown took a quiesce checkpoint; recovery lands on it.
    code = main(["recover", str(wal_dir), "--no-dataplane"])
    out = capsys.readouterr().out
    assert code == 0
    assert "recovered fabric:" in out
    assert "replayed 0 ops" in out
    assert "fabric invariant: OK" in out


def test_ha_demo_fails_over_with_zero_lost_acks(capsys, tmp_path):
    code = main([
        "ha", "demo", "--dir", str(tmp_path), "--events", "20",
        "--ttl", "0.2", "--kill-mode", "corrupt", "--seed", "5",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "primary elected at epoch 1" in out
    assert "failover to epoch 2" in out
    assert "acknowledged ops preserved" in out
    assert "deposed primary fenced" in out


def test_ha_status_reports_lease_and_logs(capsys, tmp_path):
    assert main([
        "ha", "demo", "--dir", str(tmp_path), "--events", "10",
        "--ttl", "0.2", "--seed", "5",
    ]) == 0
    capsys.readouterr()
    assert main(["ha", "status", "--dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "lease: holder=" in out
    assert "epoch=2" in out
    assert "primary:" in out and "standby:" in out
