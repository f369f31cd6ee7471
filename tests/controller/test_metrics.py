"""Metrics layer: counters, gauges, the fixed-bucket histogram, and the
deterministic registry snapshot."""

import json

import numpy as np
import pytest

from repro.telemetry.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Histogram,
    MetricsRegistry,
)
from repro.errors import PlacementError


def test_counter_and_gauge_basics():
    registry = MetricsRegistry()
    registry.inc("admitted")
    registry.inc("admitted", 2)
    assert registry.counter("admitted").value == 3
    with pytest.raises(PlacementError):
        registry.inc("admitted", -1)
    registry.gauge("tenants").set(7)
    assert registry.gauge("tenants").value == 7.0


def test_histogram_validates_buckets():
    with pytest.raises(PlacementError):
        Histogram("h", buckets=())
    with pytest.raises(PlacementError):
        Histogram("h", buckets=(1.0, 1.0))
    with pytest.raises(PlacementError):
        Histogram("h", buckets=(2.0, 1.0))


def test_histogram_observe_buckets_inclusively():
    hist = Histogram("h", buckets=(1.0, 2.0, 4.0))
    for value in (0.5, 1.0, 1.5, 2.0, 3.0, 9.0):
        hist.observe(value)
    # le-style: 1.0 lands in the first bucket, 2.0 in the second.
    assert hist.counts == [2, 2, 1, 1]
    assert hist.count == 6
    assert hist.sum == pytest.approx(17.0)


def test_histogram_quantiles_interpolate_and_clamp():
    hist = Histogram("h", buckets=(1.0, 2.0, 4.0))
    assert hist.quantile(50) is None  # empty -> None, never NaN
    for value in (0.5, 0.5, 1.5, 1.5):
        hist.observe(value)
    # p50 -> rank 2 at the first bucket's edge; p100 -> top of (1, 2].
    assert hist.quantile(50) == pytest.approx(1.0)
    assert hist.quantile(100) == pytest.approx(2.0)
    assert 0.0 < hist.quantile(25) <= 1.0
    hist.observe(100.0)  # overflow clamps to the last finite bound
    assert hist.quantile(100) == pytest.approx(4.0)
    with pytest.raises(PlacementError):
        hist.quantile(101)


def test_histogram_tracks_percentile_estimates():
    rng = np.random.default_rng(7)
    hist = Histogram("h")  # default latency buckets
    values = rng.exponential(2e-3, size=2000)
    for value in values:
        hist.observe(float(value))
    true_p50 = float(np.percentile(values, 50))
    estimate = hist.quantile(50)
    # The estimate is bucket-resolution accurate: the truth lies within
    # the bucket the estimate came from.
    idx = next(i for i, b in enumerate(DEFAULT_LATENCY_BUCKETS) if true_p50 <= b)
    lo = 0.0 if idx == 0 else DEFAULT_LATENCY_BUCKETS[idx - 1]
    assert lo <= estimate <= DEFAULT_LATENCY_BUCKETS[idx]


def test_registry_snapshot_is_sorted_and_json_native():
    registry = MetricsRegistry()
    registry.inc("zebra")
    registry.inc("alpha", 2)
    registry.gauge("mid").set(1.5)
    registry.observe("lat.b", 0.002)
    registry.observe("lat.a", 0.004)
    snap = registry.snapshot()
    assert list(snap) == ["counters", "gauges", "histograms"]
    assert list(snap["counters"]) == ["alpha", "zebra"]
    assert list(snap["histograms"]) == ["lat.a", "lat.b"]
    assert snap["histograms"]["lat.b"]["count"] == 1
    assert snap["histograms"]["lat.b"]["buckets"][-1][0] is None  # overflow row
    # Round-trips through standard JSON (no NaN, no numpy scalars).
    assert json.loads(json.dumps(snap, allow_nan=False)) == snap
    # Identical metric activity yields byte-identical serialization.
    other = MetricsRegistry()
    other.observe("lat.a", 0.004)
    other.observe("lat.b", 0.002)
    other.inc("alpha", 2)
    other.inc("zebra")
    other.gauge("mid").set(1.5)
    assert json.dumps(other.snapshot()) == json.dumps(snap)


def test_histogram_custom_buckets_only_apply_at_creation():
    registry = MetricsRegistry()
    first = registry.histogram("h", buckets=(1.0, 2.0))
    again = registry.histogram("h", buckets=(5.0,))
    assert again is first and again.bounds == (1.0, 2.0)
