"""Cross-cutting observability: postcards, spans, flight recorder, exporter.

The telemetry subsystem makes the reproduction's fast paths visible without
slowing them down:

* :mod:`~repro.telemetry.postcards` — INT-style sampled per-packet, per-hop
  dataplane records (``SwitchPipeline.telemetry`` hook; ``trace=True`` is a
  thin wrapper over the same machinery);
* :mod:`~repro.telemetry.spans` — zero-dependency control-plane trace spans
  (fabric -> controller -> installer -> runtime writes as one connected
  tree), exportable as JSONL and Chrome ``trace_event`` JSON;
* :mod:`~repro.telemetry.recorder` — a bounded flight recorder the fabric
  dumps automatically when an invariant audit or a drain goes sideways;
* :mod:`~repro.telemetry.metrics` — counters/gauges/histograms/timers;
* :mod:`~repro.telemetry.export` — Prometheus text-format rendering of
  registry snapshots.

``benchmarks/bench_telemetry_overhead.py`` holds the cost honest: sampled
tracing stays under 10% on the fabric churn workload and the disarmed hooks
under 1%.
"""

from repro.telemetry.export import render_prometheus, sanitize_metric_name
from repro.telemetry.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Timer,
)
from repro.telemetry.postcards import (
    PacketPostcard,
    PostcardCollector,
    PostcardHop,
)
from repro.telemetry.recorder import FlightRecorder
from repro.telemetry.spans import NULL_SPAN, Span, Tracer, maybe_span

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_SPAN",
    "PacketPostcard",
    "PostcardCollector",
    "PostcardHop",
    "Span",
    "Timer",
    "Tracer",
    "maybe_span",
    "render_prometheus",
    "sanitize_metric_name",
]
