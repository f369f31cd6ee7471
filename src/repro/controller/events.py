"""Event-driven tenant churn: synthesis, trace replay, and reporting.

The churn engine drives an :class:`~repro.controller.controller.SfcController`
with a timestamped stream of tenant lifecycle events — arrivals (Poisson at a
configurable rate, chains drawn from the §VI-A workload generator),
departures (exponential lifetimes), and in-place chain modifications (a
fraction of tenants re-negotiate mid-lifetime).  Streams can be synthesized
from a seed (:func:`synthesize_churn`) or saved to / replayed from a JSONL
trace (:func:`save_events` / :func:`load_events`), and every replay produces
a :class:`ChurnReport` with per-event latencies and rule-churn totals — the
numbers ``benchmarks/bench_controller_churn.py`` serializes.
"""

from __future__ import annotations

import dataclasses
import enum
import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable

import numpy as np

from repro.controller.controller import OpResult
from repro.core.spec import SFC
from repro.errors import WorkloadError
from repro.rng import make_rng
from repro.traffic.workload import WorkloadConfig, make_sfcs


class EventKind(str, enum.Enum):
    """Tenant lifecycle event types."""

    ARRIVAL = "arrival"
    DEPARTURE = "departure"
    MODIFY = "modify"


@dataclass(frozen=True)
class ChurnEvent:
    """One timestamped lifecycle event.

    ``sfc`` carries the requested chain for arrivals and modifications and
    is ``None`` for departures.  ``seq`` breaks timestamp ties so replay
    order is total and deterministic.
    """

    time_s: float
    seq: int
    kind: EventKind
    tenant_id: int
    sfc: SFC | None = None

    def to_dict(self) -> dict:
        """JSON-serializable form (one JSONL trace record)."""
        record = {
            "time_s": self.time_s,
            "seq": self.seq,
            "kind": self.kind.value,
            "tenant_id": self.tenant_id,
        }
        if self.sfc is not None:
            record["sfc"] = self.sfc.to_dict()
        return record

    @classmethod
    def from_dict(cls, record: dict) -> "ChurnEvent":
        """Inverse of :meth:`to_dict`."""
        sfc = SFC.from_dict(record["sfc"]) if "sfc" in record else None
        return cls(
            time_s=float(record["time_s"]),
            seq=int(record["seq"]),
            kind=EventKind(record["kind"]),
            tenant_id=int(record["tenant_id"]),
            sfc=sfc,
        )


@dataclass(frozen=True)
class ChurnConfig:
    """Knobs of the churn synthesizer.

    Arrivals are Poisson (``arrival_rate_per_s``) over ``duration_s``;
    lifetimes are exponential (``mean_lifetime_s``), and a tenant whose
    lifetime extends past the horizon simply survives the stream.  A
    ``modify_fraction`` of tenants issue one chain modification uniformly
    within their lifetime.  Chains come from the §VI-A workload generator.
    """

    duration_s: float = 10.0
    arrival_rate_per_s: float = 5.0
    mean_lifetime_s: float = 4.0
    modify_fraction: float = 0.2
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)

    def __post_init__(self) -> None:
        if self.duration_s <= 0 or self.arrival_rate_per_s <= 0:
            raise WorkloadError("duration and arrival rate must be positive")
        if self.mean_lifetime_s <= 0:
            raise WorkloadError("mean lifetime must be positive")
        if not 0.0 <= self.modify_fraction <= 1.0:
            raise WorkloadError("modify_fraction must be in [0, 1]")


def synthesize_churn(
    config: ChurnConfig, rng: int | np.random.Generator | None = None
) -> list[ChurnEvent]:
    """Draw a deterministic churn stream from ``config`` and a seed.

    Tenant IDs are the arrival indices (0, 1, ...), so every tenant in the
    stream is unique; events are sorted by ``(time_s, seq)``.
    """
    rng = make_rng(rng)
    arrival_times: list[float] = []
    t = 0.0
    while True:
        t += float(rng.exponential(1.0 / config.arrival_rate_per_s))
        if t >= config.duration_s:
            break
        arrival_times.append(t)
    n = len(arrival_times)
    chains = make_sfcs(config.workload.with_num_sfcs(n), rng)
    lifetimes = rng.exponential(config.mean_lifetime_s, size=n)
    modify_mask = rng.random(size=n) < config.modify_fraction
    modify_frac_of_life = rng.random(size=n)
    mod_chains = make_sfcs(config.workload.with_num_sfcs(int(modify_mask.sum())), rng)

    events: list[ChurnEvent] = []
    seq = 0
    mod_idx = 0
    for tenant, at in enumerate(arrival_times):
        sfc = replace(chains[tenant], tenant_id=tenant, name=f"tenant-{tenant}")
        events.append(
            ChurnEvent(time_s=at, seq=seq, kind=EventKind.ARRIVAL, tenant_id=tenant, sfc=sfc)
        )
        seq += 1
        lifetime = float(lifetimes[tenant])
        if modify_mask[tenant]:
            new_chain = replace(
                mod_chains[mod_idx], tenant_id=tenant, name=f"tenant-{tenant}-v2"
            )
            mod_idx += 1
            modifies_at = at + lifetime * float(modify_frac_of_life[tenant])
            if modifies_at < config.duration_s:  # else it falls past the horizon
                events.append(
                    ChurnEvent(
                        time_s=modifies_at,
                        seq=seq,
                        kind=EventKind.MODIFY,
                        tenant_id=tenant,
                        sfc=new_chain,
                    )
                )
                seq += 1
        departs = at + lifetime
        if departs < config.duration_s:
            events.append(
                ChurnEvent(
                    time_s=departs, seq=seq, kind=EventKind.DEPARTURE, tenant_id=tenant
                )
            )
            seq += 1
    events.sort(key=lambda e: (e.time_s, e.seq))
    return events


# ----------------------------------------------------------------------
# JSONL traces
# ----------------------------------------------------------------------
#: Format version written into trace header records.
TRACE_VERSION = 1


def save_events(
    path: str | Path,
    events: Iterable[ChurnEvent],
    seed: int | None = None,
    config: ChurnConfig | None = None,
) -> None:
    """Write a churn stream as one JSON object per line, preceded by a
    header record carrying the provenance a replay needs — the synthesis
    RNG seed, the churn knobs, and the event count — so a trace file alone
    suffices to reproduce (or re-synthesize and cross-check) the run."""
    events = list(events)
    header: dict = {
        "header": True,
        "version": TRACE_VERSION,
        "num_events": len(events),
    }
    if seed is not None:
        header["seed"] = int(seed)
    if config is not None:
        header["config"] = dataclasses.asdict(config)
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for event in events:
            fh.write(json.dumps(event.to_dict()) + "\n")


def read_trace_header(path: str | Path) -> dict | None:
    """The header record of a trace file, or ``None`` for a headerless
    (pre-header-format) trace."""
    with Path(path).open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            return record if record.get("header") else None
    return None


def load_events(path: str | Path) -> list[ChurnEvent]:
    """Read a churn stream saved by :func:`save_events` (the header record,
    when present, is skipped — :func:`read_trace_header` returns it)."""
    events = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if record.get("header"):
                continue
            events.append(ChurnEvent.from_dict(record))
    return events


# ----------------------------------------------------------------------
# Replay
# ----------------------------------------------------------------------
@dataclass
class ChurnReport:
    """What a replay did: every (event, outcome) pair plus wall time."""

    results: list[tuple[ChurnEvent, OpResult]] = field(default_factory=list)
    wall_seconds: float = 0.0

    @classmethod
    def merged(cls, reports: Iterable["ChurnReport"]) -> "ChurnReport":
        """One combined report over several replays: results concatenated
        in order, wall times summed.  The campaign runner uses this to
        aggregate per-phase reports into one campaign-wide view while
        keeping the PR-3 convention intact (zero successful admits across
        *all* phases still yields explicit ``None`` percentiles)."""
        out = cls()
        for report in reports:
            out.results.extend(report.results)
            out.wall_seconds += report.wall_seconds
        return out

    @property
    def num_events(self) -> int:
        """Events replayed."""
        return len(self.results)

    @property
    def events_per_sec(self) -> float:
        """Replay throughput (events handled per wall-clock second)."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.num_events / self.wall_seconds

    def _admit_latencies(self) -> list[float]:
        return [
            r.latency_s for _e, r in self.results if r.op == "admit" and r.ok
        ]

    def admit_latency_percentile(self, q: float) -> float | None:
        """The ``q``-th percentile of successful-admit latency (seconds);
        ``None`` when no admit succeeded — never NaN, so summaries stay
        JSON-clean on all-rejected replays (e.g. a drained fabric)."""
        latencies = self._admit_latencies()
        if not latencies:
            return None
        return float(np.percentile(np.asarray(latencies), q))

    def summary(self) -> dict[str, float | None]:
        """The flat numbers the benchmark serializes: event counts by
        outcome, throughput, admit-latency percentiles and rule churn.
        Latency percentiles are explicit ``None`` (JSON ``null``) when the
        replay had zero successful admits."""
        admitted = sum(1 for _e, r in self.results if r.op == "admit" and r.ok)
        evicted = sum(1 for _e, r in self.results if r.op == "evict" and r.ok)
        modified = sum(1 for _e, r in self.results if r.op == "modify" and r.ok)
        rejected = sum(1 for _e, r in self.results if not r.ok)
        p50 = self.admit_latency_percentile(50)
        p99 = self.admit_latency_percentile(99)
        return {
            "events": float(self.num_events),
            "admitted": float(admitted),
            "evicted": float(evicted),
            "modified": float(modified),
            "rejected": float(rejected),
            "events_per_sec": self.events_per_sec,
            "admit_p50_ms": None if p50 is None else p50 * 1e3,
            "admit_p99_ms": None if p99 is None else p99 * 1e3,
            "rules_added": float(sum(r.rules_added for _e, r in self.results)),
            "rules_deleted": float(sum(r.rules_deleted for _e, r in self.results)),
        }

    def describe(self) -> str:
        """Human-readable one-paragraph summary (the CLI's output)."""
        s = self.summary()
        if s["admit_p50_ms"] is None:
            latency = "admit latency n/a (no successful admits)"
        else:
            latency = (
                f"admit latency p50={s['admit_p50_ms']:.3f}ms "
                f"p99={s['admit_p99_ms']:.3f}ms"
            )
        return (
            f"{int(s['events'])} events in {self.wall_seconds:.2f}s "
            f"({s['events_per_sec']:.0f} events/s): "
            f"{int(s['admitted'])} admitted, {int(s['modified'])} modified, "
            f"{int(s['evicted'])} evicted, {int(s['rejected'])} rejected; "
            f"{latency}; "
            f"rules +{int(s['rules_added'])}/-{int(s['rules_deleted'])}"
        )


class ChurnEngine:
    """Applies a churn stream, one event at a time, to any target exposing
    ``admit(sfc)``, ``evict(tenant_id)``, ``modify(tenant_id, sfc)`` and a
    ``metrics`` registry: one
    :class:`~repro.controller.controller.SfcController`, or a whole
    :class:`~repro.fabric.orchestrator.FabricOrchestrator` (its
    ``FabricOpResult`` is field-compatible with ``OpResult`` where
    :class:`ChurnReport` looks, so both produce the same report type)."""

    def __init__(self, target) -> None:
        self.target = target

    def apply(self, event: ChurnEvent) -> OpResult:
        """Dispatch one event to the target."""
        if event.kind is EventKind.ARRIVAL:
            if event.sfc is None:
                raise WorkloadError(f"arrival event at t={event.time_s} has no SFC")
            return self.target.admit(event.sfc)
        if event.kind is EventKind.DEPARTURE:
            return self.target.evict(event.tenant_id)
        if event.sfc is None:
            raise WorkloadError(f"modify event at t={event.time_s} has no SFC")
        return self.target.modify(event.tenant_id, event.sfc)

    def replay(self, events: Iterable[ChurnEvent]) -> ChurnReport:
        """Apply every event in order and collect the report."""
        report = ChurnReport()
        with self.target.metrics.timer("replay_wall_s") as timer:
            for event in events:
                report.results.append((event, self.apply(event)))
        report.wall_seconds = timer.elapsed_s
        return report
