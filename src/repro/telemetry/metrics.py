"""Counters, gauges, histograms, timers, and snapshots.

A deliberately small Prometheus-flavoured metrics layer.  Counters are
monotonic (admissions, rejections by reason, rule churn, rollbacks); gauges
are set to the latest observed value (live tenants, objective, residual
memory per stage); histograms bin observations into fixed buckets (the
fabric orchestrator tracks per-switch admit latency this way);
:meth:`MetricsRegistry.timer` stopwatches a code block straight into a
latency histogram — the controller, fabric, and churn engines time every
operation through it instead of hand-rolled ``perf_counter`` pairs.
:meth:`MetricsRegistry.snapshot` freezes everything into one plain ``dict``
of name-sorted sub-dicts built from JSON-native types only, so serialized
snapshots are deterministic and diff cleanly — the shape the churn
benchmark serializes to ``BENCH_controller.json``, the ``sfp fabric`` CLI
prints, and
:func:`repro.telemetry.export.render_prometheus` renders in Prometheus text
format.

Every metric is **thread-safe**: counters, gauges, and histograms each
carry their own mutex and the registry serializes get-or-create and
snapshots, so the concurrent front end's shard workers
(:mod:`repro.frontend.workers`) can hammer one shared registry without
corrupting counts or tearing snapshots mid-update.
"""

from __future__ import annotations

import bisect
import threading
from dataclasses import dataclass, field
from time import perf_counter

from repro.errors import PlacementError

#: Default histogram buckets (upper bounds, seconds) spanning the admit
#: latencies the pure-python controller produces: 10 µs .. 1 s, roughly
#: logarithmic.  An implicit overflow bucket catches everything above.
DEFAULT_LATENCY_BUCKETS = (
    1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3,
    1e-2, 2.5e-2, 5e-2, 1e-1, 2.5e-1, 5e-1, 1.0,
)

#: Buckets (seconds) for HA replication-lag and failover-time histograms:
#: shipping inside one process lands in the sub-millisecond bins, a lagging
#: standby or a lease-expiry failover in the right half, and anything past
#: 30 s overflows — a replica that far behind is an operator page, not a
#: datapoint.
REPLICATION_LAG_BUCKETS = (
    1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 1e-1, 2.5e-1, 5e-1,
    1.0, 2.5, 5.0, 10.0, 30.0,
)


@dataclass
class Counter:
    """A monotonically increasing counter (thread-safe)."""

    name: str
    value: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def inc(self, n: int = 1) -> None:
        """Add ``n`` (>= 0) to the counter."""
        if n < 0:
            raise PlacementError(f"counter {self.name!r}: negative increment {n}")
        with self._lock:
            self.value += n


@dataclass
class Gauge:
    """A gauge holding the latest observed value (thread-safe)."""

    name: str
    value: float = 0.0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def set(self, value: float) -> None:
        """Record the latest observation."""
        with self._lock:
            self.value = float(value)


class Histogram:
    """A fixed-bucket histogram of non-negative observations.

    ``buckets`` are ascending upper bounds; an implicit overflow bucket
    catches observations above the last bound.  Bounds are fixed at
    construction (no rebinning), so merging/diffing snapshots is trivial
    and :meth:`observe` is one bisect.  Designed for latencies: quantiles
    interpolate linearly inside a bucket with the first bucket anchored at
    zero.
    """

    def __init__(
        self, name: str, buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS
    ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise PlacementError(f"histogram {name!r}: needs >= 1 bucket")
        if any(b <= a for a, b in zip(bounds, bounds[1:])):
            raise PlacementError(
                f"histogram {name!r}: bucket bounds must be strictly "
                f"ascending, got {bounds}"
            )
        self.name = name
        self.bounds = bounds
        #: Per-bucket counts; the extra last slot is the overflow bucket.
        self.counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one observation (bucket bounds are inclusive, Prometheus
        ``le`` style)."""
        value = float(value)
        with self._lock:
            self.counts[bisect.bisect_left(self.bounds, value)] += 1
            self.count += 1
            self.sum += value

    def quantile(self, q: float) -> float | None:
        """The ``q``-th percentile (``q`` in [0, 100], matching
        ``numpy.percentile``), linearly interpolated within the covering
        bucket; observations in the overflow bucket clamp to the last
        bound.  ``None`` when nothing has been observed — never NaN."""
        if not 0.0 <= q <= 100.0:
            raise PlacementError(f"histogram {self.name!r}: percentile {q}")
        with self._lock:
            counts = list(self.counts)
            count = self.count
        return self._quantile_from(counts, count, q)

    def _quantile_from(
        self, counts: list[int], count: int, q: float
    ) -> float | None:
        """The quantile over one consistent ``(counts, count)`` copy."""
        if count == 0:
            return None
        rank = q / 100.0 * count
        cumulative = 0
        for idx, bucket_count in enumerate(counts):
            if bucket_count == 0:
                continue
            lo = 0.0 if idx == 0 else self.bounds[idx - 1]
            hi = self.bounds[min(idx, len(self.bounds) - 1)]
            if cumulative + bucket_count >= rank:
                if idx == len(self.bounds):  # overflow: clamp to last bound
                    return hi
                fraction = max(0.0, rank - cumulative) / bucket_count
                return lo + fraction * (hi - lo)
            cumulative += bucket_count
        return self.bounds[-1]  # pragma: no cover — rank <= count always hits

    def snapshot(self) -> dict:
        """Plain JSON-native form: count, sum, p50/p99 estimates, and the
        ``[upper_bound, count]`` rows (overflow bound serialized as
        ``None`` so the JSON stays standard).  The copy is taken under the
        histogram mutex, so a snapshot racing concurrent ``observe`` calls
        is still internally consistent (buckets sum to ``count``)."""
        with self._lock:
            counts = list(self.counts)
            count = self.count
            total = self.sum
        rows = [
            [self.bounds[i] if i < len(self.bounds) else None, counts[i]]
            for i in range(len(counts))
        ]
        return {
            "count": count,
            "sum": total,
            "p50": self._quantile_from(counts, count, 50),
            "p99": self._quantile_from(counts, count, 99),
            "buckets": rows,
        }


class Timer:
    """A context-manager stopwatch, optionally bound to a histogram.

    Starts at construction *and* restarts on ``__enter__``, so both idioms
    work::

        with registry.timer("admit_latency_s") as timer:
            ...                     # observed into the histogram on exit
        result.latency_s = timer.elapsed_s

        timer = Timer()             # standalone stopwatch, no histogram
        ...
        took = timer.elapsed_s      # live reading, never stops

    :attr:`elapsed_s` reads live while running and freezes at the value
    observed into the histogram once the ``with`` block exits.
    """

    __slots__ = ("histogram", "_start", "_stopped")

    def __init__(self, histogram: Histogram | None = None) -> None:
        self.histogram = histogram
        self._start = perf_counter()
        self._stopped: float | None = None

    def __enter__(self) -> "Timer":
        self._start = perf_counter()
        self._stopped = None
        return self

    def __exit__(self, *_exc: object) -> None:
        self._stopped = perf_counter() - self._start
        if self.histogram is not None:
            self.histogram.observe(self._stopped)

    @property
    def elapsed_s(self) -> float:
        """Seconds since start — live while running, frozen after exit."""
        if self._stopped is not None:
            return self._stopped
        return perf_counter() - self._start


@dataclass
class MetricsRegistry:
    """Name-addressed counters, gauges, and histograms with one-call
    snapshots.

    Metric names are free-form dotted strings; reason-coded rejections use
    the ``rejected.<reason>`` convention next to the ``rejected`` total,
    and the fabric's per-switch latencies use ``admit_latency_s.<switch>``.
    """

    counters: dict[str, Counter] = field(default_factory=dict)
    gauges: dict[str, Gauge] = field(default_factory=dict)
    histograms: dict[str, Histogram] = field(default_factory=dict)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def counter(self, name: str) -> Counter:
        """The counter called ``name``, created at zero on first use."""
        counter = self.counters.get(name)
        if counter is None:
            with self._lock:
                counter = self.counters.get(name)
                if counter is None:
                    counter = self.counters[name] = Counter(name)
        return counter

    def gauge(self, name: str) -> Gauge:
        """The gauge called ``name``, created at zero on first use."""
        gauge = self.gauges.get(name)
        if gauge is None:
            with self._lock:
                gauge = self.gauges.get(name)
                if gauge is None:
                    gauge = self.gauges[name] = Gauge(name)
        return gauge

    def histogram(
        self, name: str, buckets: tuple[float, ...] | None = None
    ) -> Histogram:
        """The histogram called ``name``, created empty on first use
        (``buckets`` only applies at creation; later calls reuse the
        existing bounds)."""
        histogram = self.histograms.get(name)
        if histogram is None:
            with self._lock:
                histogram = self.histograms.get(name)
                if histogram is None:
                    histogram = self.histograms[name] = Histogram(
                        name,
                        buckets if buckets is not None else DEFAULT_LATENCY_BUCKETS,
                    )
        return histogram

    def inc(self, name: str, n: int = 1) -> None:
        """Shorthand for ``counter(name).inc(n)``."""
        self.counter(name).inc(n)

    def observe(self, name: str, value: float) -> None:
        """Shorthand for ``histogram(name).observe(value)``."""
        self.histogram(name).observe(value)

    def timer(
        self, name: str, buckets: tuple[float, ...] | None = None
    ) -> Timer:
        """A :class:`Timer` bound to ``histogram(name)``: use as a context
        manager and the block's wall time (seconds) lands in the histogram
        on exit, with the exact reading still available as ``elapsed_s``."""
        return Timer(self.histogram(name, buckets))

    def snapshot(self) -> dict:
        """Freeze every metric into ``{"counters": {...}, "gauges": {...},
        "histograms": {...}}`` — plain dicts of JSON-native values with
        names sorted, so serialized snapshots are deterministic and diff
        cleanly."""
        with self._lock:
            counters = dict(self.counters)
            gauges = dict(self.gauges)
            histograms = dict(self.histograms)
        return {
            "counters": {n: counters[n].value for n in sorted(counters)},
            "gauges": {n: gauges[n].value for n in sorted(gauges)},
            "histograms": {
                n: histograms[n].snapshot() for n in sorted(histograms)
            },
        }
