"""The tenant-lifecycle stream: one record, one draw, one trace file, one
dispatch.

Every replay in the repo — the ``sfp fabric`` churn replay, the campaign
runner, the front end's demo mode, the HA drills — applies a stream of
:class:`ChurnEvent` records through :meth:`ChurnEngine.apply`.  The stream
carries tenant lifecycle events — arrivals (Poisson at a configurable rate,
chains drawn from the §VI-A workload generator), departures (exponential
lifetimes), and in-place chain modifications (a fraction of tenants
re-negotiate mid-lifetime) — and, in compiled campaigns
(:mod:`repro.scenarios.compile`), phase markers and the administrative
``drain``/``undrain``/``reoptimize`` events.  :func:`draw_lifecycle` is the
one per-tenant draw: :func:`synthesize_churn` feeds it Poisson arrivals and
the campaign compiler feeds it thinned, per-phase arrivals.  Streams save to
/ load from a JSONL trace (:func:`save_events` / :func:`read_trace`: a
header record, then one event per line), and every replay produces a
:class:`ChurnReport` with per-event latencies, rule-churn totals and
administrative tallies.
"""

from __future__ import annotations

import dataclasses
import enum
import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from repro.controller.controller import OpResult
from repro.core.spec import SFC
from repro.errors import ReproError, WorkloadError
from repro.rng import make_rng
from repro.traffic.workload import WorkloadConfig, make_sfcs


class EventKind(str, enum.Enum):
    """Stream event types, declared in same-instant replay order: the phase
    marker first, then administrative undrain/drain, then tenant lifecycle,
    then the fabric-wide ``reoptimize`` pass (last, so it sees the
    instant's churn already applied)."""

    PHASE = "phase"
    UNDRAIN = "undrain"
    DRAIN = "drain"
    DEPARTURE = "departure"
    MODIFY = "modify"
    ARRIVAL = "arrival"
    REOPTIMIZE = "reoptimize"


@dataclass(frozen=True)
class ChurnEvent:
    """One timestamped stream event.

    ``sfc`` carries the requested chain for arrivals and modifications.
    ``tenant_id`` is -1 on markers and administrative events; ``switch``
    names a drain/undrain target; ``phase`` is the campaign phase the event
    falls in (``None`` on synthesized churn).  ``seq`` breaks timestamp ties
    so replay order is total and deterministic.
    """

    time_s: float
    seq: int
    kind: EventKind
    tenant_id: int = -1
    sfc: SFC | None = None
    phase: str | None = None
    switch: str | None = None

    def to_dict(self) -> dict:
        """JSON-serializable form (one JSONL trace record); optional fields
        appear only when set."""
        record: dict = {"time_s": self.time_s, "seq": self.seq, "kind": self.kind.value}
        if self.phase is not None:
            record["phase"] = self.phase
        record["tenant_id"] = self.tenant_id
        if self.switch is not None:
            record["switch"] = self.switch
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
            phase=record.get("phase"),
            switch=record.get("switch"),
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


def draw_lifecycle(
    rng: np.random.Generator,
    workload: WorkloadConfig,
    arrivals: Sequence[float],
    horizon: float,
    mean_lifetime_s: float,
    modify_fraction: float,
    first_tenant: int = 0,
) -> list[ChurnEvent]:
    """The per-tenant lifecycle draw for tenants arriving at ``arrivals``
    (absolute times), numbered from ``first_tenant``.

    Draws, in this order: the chains, the exponential lifetimes, the modify
    coins, the modify instants (a fraction of each lifetime) and the
    replacement chains.  Returns each tenant's arrival, its modify and its
    departure in draw order, with ``seq`` = position in that order; a
    modify or departure at or past ``horizon`` is dropped (the tenant
    survives the stream).
    """
    n = len(arrivals)
    chains = make_sfcs(workload.with_num_sfcs(n), rng)
    lifetimes = rng.exponential(mean_lifetime_s, size=n)
    modify_mask = rng.random(size=n) < modify_fraction
    modify_frac_of_life = rng.random(size=n)
    mod_chains = make_sfcs(workload.with_num_sfcs(int(modify_mask.sum())), rng)

    events: list[ChurnEvent] = []
    mod_idx = 0
    for idx, at in enumerate(arrivals):
        tenant = first_tenant + idx
        sfc = replace(chains[idx], tenant_id=tenant, name=f"tenant-{tenant}")
        events.append(ChurnEvent(at, len(events), EventKind.ARRIVAL, tenant, sfc))
        lifetime = float(lifetimes[idx])
        if modify_mask[idx]:
            new_chain = replace(
                mod_chains[mod_idx], tenant_id=tenant, name=f"tenant-{tenant}-v2"
            )
            mod_idx += 1
            modifies_at = at + lifetime * float(modify_frac_of_life[idx])
            if modifies_at < horizon:
                events.append(
                    ChurnEvent(modifies_at, len(events), EventKind.MODIFY, tenant, new_chain)
                )
        departs = at + lifetime
        if departs < horizon:
            events.append(ChurnEvent(departs, len(events), EventKind.DEPARTURE, tenant))
    return events


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
    events = draw_lifecycle(
        rng, config.workload, arrival_times, config.duration_s,
        config.mean_lifetime_s, config.modify_fraction,
    )
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
    **header_fields,
) -> None:
    """Write a stream as one JSON object per line, preceded by a header
    record carrying the provenance a replay needs — the RNG seed, the churn
    knobs (or, for a campaign, ``header_fields``: its kind, spec and
    digest), and the event count — so a trace file alone suffices to
    reproduce (or re-synthesize and cross-check) the run."""
    events = list(events)
    header: dict = {
        "header": True,
        "version": TRACE_VERSION,
        "num_events": len(events),
        **header_fields,
    }
    if seed is not None:
        header["seed"] = int(seed)
    if config is not None:
        header["config"] = dataclasses.asdict(config)
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for event in events:
            fh.write(json.dumps(event.to_dict()) + "\n")


def read_trace(path: str | Path) -> tuple[dict, list[ChurnEvent]]:
    """Read a trace written by :func:`save_events`: its header record
    (``{}`` for a headerless trace) and its events.  A line that is not a
    JSON object, lacks a field, names an unknown kind or holds a wrong type
    raises :class:`~repro.errors.WorkloadError` naming the file and line."""
    header: dict = {}
    events: list[ChurnEvent] = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                if not isinstance(record, dict):
                    raise TypeError(f"expected a JSON object, got {line[:40]!r}")
                if record.get("header"):
                    header = record
                else:
                    events.append(ChurnEvent.from_dict(record))
            except json.JSONDecodeError as exc:
                raise WorkloadError(f"{path}, line {lineno}: not JSON ({exc.msg})") from None
            except KeyError as exc:
                raise WorkloadError(f"{path}, line {lineno}: missing field {exc}") from None
            except (TypeError, ValueError, ReproError) as exc:
                raise WorkloadError(f"{path}, line {lineno}: {exc}") from None
    return header, events


def load_events(path: str | Path) -> list[ChurnEvent]:
    """The events of a trace written by :func:`save_events` (see
    :func:`read_trace`)."""
    return read_trace(path)[1]


# ----------------------------------------------------------------------
# Replay
# ----------------------------------------------------------------------
@dataclass
class ChurnReport:
    """What a replay did: every lifecycle (event, outcome) pair, the
    administrative tallies, and wall time."""

    results: list[tuple[ChurnEvent, OpResult]] = field(default_factory=list)
    wall_seconds: float = 0.0
    drains: int = 0
    undrains: int = 0
    reoptimizes: int = 0
    #: Migration moves executed by the ``reoptimize`` passes.
    reopt_moves: int = 0

    @classmethod
    def merged(cls, reports: Iterable["ChurnReport"]) -> "ChurnReport":
        """One combined report over several replays: results concatenated
        in order, wall times and tallies summed.  The campaign runner uses
        this to aggregate per-phase reports into one campaign-wide view
        while keeping the PR-3 convention intact (zero successful admits
        across *all* phases still yields explicit ``None`` percentiles)."""
        out = cls()
        for report in reports:
            out.results.extend(report.results)
            out.wall_seconds += report.wall_seconds
            out.drains += report.drains
            out.undrains += report.undrains
            out.reoptimizes += report.reoptimizes
            out.reopt_moves += report.reopt_moves
        return out

    @property
    def num_events(self) -> int:
        """Lifecycle events replayed."""
        return len(self.results)

    @property
    def events_per_sec(self) -> float:
        """Replay throughput (events handled per wall-clock second)."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.num_events / self.wall_seconds

    def admit_latency_percentile(self, q: float) -> float | None:
        """The ``q``-th percentile of successful-admit latency (seconds);
        ``None`` when no admit succeeded — never NaN, so summaries stay
        JSON-clean on all-rejected replays (e.g. a drained fabric)."""
        latencies = [r.latency_s for _e, r in self.results if r.op == "admit" and r.ok]
        if not latencies:
            return None
        return float(np.percentile(np.asarray(latencies), q))

    def summary(self) -> dict[str, float | None]:
        """The flat numbers the benchmarks serialize: event counts by
        outcome, throughput, admit-latency percentiles, rule churn and the
        administrative tallies.  Latency percentiles are explicit ``None``
        (JSON ``null``) when the replay had zero successful admits."""
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
            "drains": float(self.drains),
            "undrains": float(self.undrains),
            "reoptimizes": float(self.reoptimizes),
            "reopt_moves": float(self.reopt_moves),
        }

    def outcomes(self) -> str:
        """The outcome counts, admit-latency percentiles and (when any)
        administrative tallies as one line fragment — what the CLI and the
        campaign reports print."""
        s = self.summary()
        if s["admit_p50_ms"] is None:
            latency = "admit latency n/a (no successful admits)"
        else:
            latency = f"admit p50={s['admit_p50_ms']:.3f}ms p99={s['admit_p99_ms']:.3f}ms"
        admin = ""
        if self.drains or self.undrains:
            admin = f"; {self.drains} drains, {self.undrains} undrains"
        if self.reoptimizes:
            admin += f"; {self.reoptimizes} reoptimizes ({self.reopt_moves} moves)"
        return (
            f"{int(s['admitted'])} admitted, {int(s['modified'])} modified, "
            f"{int(s['evicted'])} evicted, {int(s['rejected'])} rejected; "
            f"{latency}{admin}"
        )

    def describe(self) -> str:
        """Human-readable one-paragraph summary (the CLI's output)."""
        s = self.summary()
        return (
            f"{self.num_events} events in {self.wall_seconds:.2f}s "
            f"({s['events_per_sec']:.0f} events/s): {self.outcomes()}; "
            f"rules +{int(s['rules_added'])}/-{int(s['rules_deleted'])}"
        )


class ChurnEngine:
    """Applies a stream, one event at a time, to any target exposing
    ``admit(sfc)``, ``evict(tenant_id)``, ``modify(tenant_id, sfc)`` and a
    ``metrics`` registry — one
    :class:`~repro.controller.controller.SfcController`, a whole
    :class:`~repro.fabric.orchestrator.FabricOrchestrator` (its
    ``FabricOpResult`` is field-compatible with ``OpResult`` where
    :class:`ChurnReport` looks), or the front end's client.  Administrative
    events need a fabric: ``drain(switch)``, ``undrain(switch)`` and
    ``reoptimize(mode=...)``.  This is the only code that branches on
    :class:`EventKind`."""

    def __init__(self, target) -> None:
        self.target = target

    def apply(self, event: ChurnEvent, report: ChurnReport | None = None) -> OpResult | None:
        """Dispatch one event to the target, recording its outcome in
        ``report`` when given.  Returns the lifecycle op's result; ``None``
        for phase markers and administrative events."""
        kind = event.kind
        if kind is EventKind.ARRIVAL or kind is EventKind.MODIFY:
            if event.sfc is None:
                raise WorkloadError(f"{kind.value} event at t={event.time_s} has no SFC")
            if kind is EventKind.ARRIVAL:
                result = self.target.admit(event.sfc)
            else:
                result = self.target.modify(event.tenant_id, event.sfc)
        elif kind is EventKind.DEPARTURE:
            result = self.target.evict(event.tenant_id)
        else:
            self._administer(event, report if report is not None else ChurnReport())
            return None
        if report is not None:
            report.results.append((event, result))
        return result

    def _administer(self, event: ChurnEvent, report: ChurnReport) -> None:
        kind = event.kind
        if kind is EventKind.DRAIN:
            self.target.drain(event.switch)
            report.drains += 1
        elif kind is EventKind.UNDRAIN:
            self.target.undrain(event.switch)
            report.undrains += 1
        elif kind is EventKind.REOPTIMIZE:
            reopt = self.target.reoptimize(mode="greedy")
            report.reoptimizes += 1
            if reopt.migration is not None:
                report.reopt_moves += reopt.migration.executed

    def replay(self, events: Iterable[ChurnEvent]) -> ChurnReport:
        """Apply every event in order and collect the report."""
        report = ChurnReport()
        with self.target.metrics.timer("replay_wall_s") as timer:
            for event in events:
                self.apply(event, report)
        report.wall_seconds = timer.elapsed_s
        return report
