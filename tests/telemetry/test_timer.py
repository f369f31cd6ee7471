"""The Timer satellite: registry stopwatches."""

import time

from repro.telemetry.metrics import MetricsRegistry, Timer


def test_timer_observes_into_registry_histogram():
    registry = MetricsRegistry()
    with registry.timer("op_latency_s.admit") as timer:
        time.sleep(0.001)
    assert timer.elapsed_s >= 0.001
    hist = registry.snapshot()["histograms"]["op_latency_s.admit"]
    assert hist["count"] == 1
    assert hist["sum"] >= 0.001


def test_timer_elapsed_is_live_inside_and_frozen_after():
    with Timer() as timer:
        first = timer.elapsed_s
        time.sleep(0.001)
        second = timer.elapsed_s
    assert second > first
    frozen = timer.elapsed_s
    time.sleep(0.001)
    assert timer.elapsed_s == frozen  # stopped on exit


def test_standalone_timer_runs_from_construction():
    timer = Timer()
    time.sleep(0.001)
    assert timer.elapsed_s >= 0.001  # no with-block needed
    assert timer.histogram is None


def test_timer_observes_even_when_body_raises():
    registry = MetricsRegistry()
    try:
        with registry.timer("failing_op_s"):
            raise RuntimeError("op failed")
    except RuntimeError:
        pass
    assert registry.snapshot()["histograms"]["failing_op_s"]["count"] == 1
