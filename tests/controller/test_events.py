"""Churn-stream tests: synthesis determinism and shape, the byte pins of
the saved stream, JSONL round-trip, replay reporting, and the metrics
layer."""

import hashlib
from dataclasses import replace

import pytest

from repro.controller.events import (
    ChurnConfig,
    ChurnEngine,
    ChurnEvent,
    EventKind,
    load_events,
    save_events,
    synthesize_churn,
)
from repro.controller.controller import SfcController
from repro.errors import PlacementError, WorkloadError
from repro.experiments.config import PAPER_WORKLOAD
from repro.telemetry.metrics import MetricsRegistry
from repro.traffic.workload import WorkloadConfig


@pytest.fixture
def config() -> ChurnConfig:
    return ChurnConfig(
        duration_s=5.0,
        arrival_rate_per_s=6.0,
        mean_lifetime_s=2.0,
        modify_fraction=0.3,
        workload=WorkloadConfig(
            num_sfcs=0, num_types=3, avg_chain_length=2, chain_length_spread=1,
            rules_min=1, rules_max=5,
        ),
    )


def test_synthesis_is_deterministic_and_ordered(config):
    a = synthesize_churn(config, rng=3)
    b = synthesize_churn(config, rng=3)
    assert a == b
    assert a != synthesize_churn(config, rng=4)
    assert a == sorted(a, key=lambda e: (e.time_s, e.seq))
    assert all(0.0 < e.time_s < config.duration_s for e in a)


def test_synthesis_event_shape(config):
    events = synthesize_churn(config, rng=3)
    arrivals = [e for e in events if e.kind is EventKind.ARRIVAL]
    departures = [e for e in events if e.kind is EventKind.DEPARTURE]
    modifies = [e for e in events if e.kind is EventKind.MODIFY]
    # One arrival per unique tenant, at most one departure/modify each.
    tenants = [e.tenant_id for e in arrivals]
    assert len(set(tenants)) == len(tenants)
    assert set(e.tenant_id for e in departures) <= set(tenants)
    assert set(e.tenant_id for e in modifies) <= set(tenants)
    assert all(e.sfc is not None and e.sfc.tenant_id == e.tenant_id for e in arrivals)
    assert all(e.sfc is not None for e in modifies)
    assert all(e.sfc is None for e in departures)
    # Per-tenant causal order: arrival < modify < departure.
    first = {e.tenant_id: e.time_s for e in arrivals}
    last = {e.tenant_id: e.time_s for e in departures}
    for e in modifies:
        assert first[e.tenant_id] <= e.time_s
        if e.tenant_id in last:
            assert e.time_s <= last[e.tenant_id]


#: Stream configs whose saved bytes are pinned: the defaults, the `sfp
#: fabric --quick` stream, and the `intent_place` benchmark's stream
#: (`benchmarks/e2e/wl_place.py`, 60 s of it).
PINNED_CONFIGS = {
    "default": ChurnConfig(),
    "paper": ChurnConfig(
        duration_s=5.0, arrival_rate_per_s=8.0, mean_lifetime_s=5.0,
        modify_fraction=0.2, workload=replace(PAPER_WORKLOAD, num_sfcs=0),
    ),
    "intent_place": ChurnConfig(
        duration_s=60.0, arrival_rate_per_s=28.0, mean_lifetime_s=6.0,
        modify_fraction=0.25,
        workload=WorkloadConfig(
            num_sfcs=0, num_types=6, avg_chain_length=4, chain_length_spread=2,
            rules_min=1, rules_max=4, mean_bandwidth_gbps=1.0,
            max_bandwidth_gbps=4.0,
        ),
    ),
}

#: blake2b-128 of each `save_events` file, recorded when the stream had its
#: own record type and draw; any change to either moves these.
STREAM_PINS = {
    ("default", 1): "177967c69dea8d247895b381be32071e",
    ("default", 7): "0c3aa37f60b7681ad8d0c10f29251229",
    ("default", 42): "84997c4c3a141069078a48626efeac27",
    ("paper", 1): "1ea59b3d90594ae5eaeb09077c120926",
    ("paper", 7): "dcc7cdd0944c533a6096600a268dd51f",
    ("paper", 42): "daf2e49b113b4e0271b76bd9a7160be6",
    ("intent_place", 1): "7056f9e66fd5a604d6e17a7c3d476f81",
    ("intent_place", 7): "7257e20f43b32e4b06b07de5c5b7e538",
    ("intent_place", 42): "9469b22cd29fc03d2d558228e0318bf0",
}


@pytest.mark.parametrize("name,seed", sorted(STREAM_PINS))
def test_saved_stream_bytes_are_pinned(tmp_path, name, seed):
    config = PINNED_CONFIGS[name]
    path = tmp_path / "churn.jsonl"
    save_events(path, synthesize_churn(config, rng=seed), seed=seed, config=config)
    digest = hashlib.blake2b(path.read_bytes(), digest_size=16).hexdigest()
    assert digest == STREAM_PINS[(name, seed)]


def test_jsonl_roundtrip(config, tmp_path):
    events = synthesize_churn(config, rng=3)
    path = tmp_path / "churn.jsonl"
    save_events(path, events)
    assert load_events(path) == events


def test_replay_report(tiny_instance, config):
    controller = SfcController(tiny_instance, with_dataplane=False)
    events = synthesize_churn(config, rng=3)
    report = ChurnEngine(controller).replay(events)
    assert report.num_events == len(events)
    summary = report.summary()
    assert summary["admitted"] >= 1
    assert summary["admitted"] - summary["evicted"] == len(controller.tenants)
    assert summary["events_per_sec"] > 0
    assert 0 <= summary["admit_p50_ms"] <= summary["admit_p99_ms"]
    described = report.describe()
    assert "events/s" in described and "p99" in described


def test_bad_configs_rejected():
    with pytest.raises(WorkloadError):
        ChurnConfig(duration_s=0)
    with pytest.raises(WorkloadError):
        ChurnConfig(modify_fraction=1.5)
    with pytest.raises(WorkloadError):
        ChurnEngine(None).apply(
            ChurnEvent(time_s=0.0, seq=0, kind=EventKind.ARRIVAL, tenant_id=1)
        )


def test_metrics_registry():
    registry = MetricsRegistry()
    registry.inc("admitted")
    registry.inc("admitted", 2)
    registry.gauge("tenants").set(7)
    snap = registry.snapshot()
    assert snap == {
        "counters": {"admitted": 3},
        "gauges": {"tenants": 7.0},
        "histograms": {},
    }
    with pytest.raises(PlacementError):
        registry.counter("admitted").inc(-1)
    # Snapshots are frozen copies, not views.
    registry.inc("admitted")
    assert snap["counters"]["admitted"] == 3


def test_report_with_zero_successful_admits_is_nan_free(tiny_instance):
    """Regression: an all-rejected replay (e.g. a drained fabric) must not
    surface NaN percentiles — explicit ``None`` everywhere."""
    import json
    import math

    controller = SfcController(tiny_instance, with_dataplane=False)
    # Departures for tenants that never arrived: every event is rejected.
    events = [
        ChurnEvent(time_s=float(i), seq=i, kind=EventKind.DEPARTURE, tenant_id=i)
        for i in range(5)
    ]
    report = ChurnEngine(controller).replay(events)
    assert report.admit_latency_percentile(50) is None
    assert report.admit_latency_percentile(99) is None
    summary = report.summary()
    assert summary["admitted"] == 0 and summary["rejected"] == 5
    assert summary["admit_p50_ms"] is None
    assert summary["admit_p99_ms"] is None
    assert not any(
        isinstance(v, float) and math.isnan(v) for v in summary.values()
    )
    # Serializes as standard JSON (explicit nulls, never NaN literals).
    payload = json.dumps(summary, allow_nan=False)
    assert json.loads(payload)["admit_p50_ms"] is None
    assert "admit latency n/a" in report.describe()


def test_empty_report_is_nan_free():
    # An untouched report (no events at all) behaves the same way.
    from repro.controller.events import ChurnReport

    empty = ChurnReport()
    assert empty.num_events == 0 and empty.events_per_sec == 0.0
    assert empty.admit_latency_percentile(50) is None
    assert empty.summary()["admit_p50_ms"] is None
    assert "admit latency n/a" in empty.describe()
