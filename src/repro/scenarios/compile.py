"""Scenario compiler: a :class:`~repro.scenarios.dsl.ScenarioSpec` plus a
seed becomes a totally ordered, replayable
:class:`~repro.controller.events.ChurnEvent` stream.

Arrivals are drawn per phase by *thinning* (rejection sampling a homogeneous
Poisson process at the curve's peak rate), so any :class:`LoadCurve` shape
yields an exact non-homogeneous Poisson stream from one
:func:`~repro.rng.make_rng` generator; each phase's tenants then get the
same lifecycle draw as plain churn
(:func:`~repro.controller.events.draw_lifecycle`).  Fault schedules and
burst-modify coin flips come from the same generator in a fixed order, so
**the same (spec, seed) always compiles to the same stream** — byte for
byte.  :func:`trace_digest` pins that down: it hashes the canonical JSONL
encoding of every event, and :func:`save_campaign`/:func:`load_campaign`
write/verify it in the header of an ordinary
:func:`~repro.controller.events.save_events` trace.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass, replace
from hashlib import blake2b
from pathlib import Path
from typing import Iterable

from repro.controller.events import (
    ChurnEvent,
    EventKind,
    draw_lifecycle,
    read_trace,
    save_events,
)
from repro.errors import ScenarioError
from repro.rng import make_rng
from repro.scenarios.dsl import ScenarioSpec
from repro.traffic.workload import make_sfcs

#: The ``kind`` a campaign trace's header carries.
CAMPAIGN_KIND = "scenario-campaign"


def trace_digest(events: Iterable[ChurnEvent]) -> str:
    """Stable blake2b digest of the canonical JSONL encoding of a stream.
    Two streams digest equal iff their serialized traces are byte-identical
    — the replayability guarantee the property suite asserts."""
    h = blake2b(digest_size=16)
    for event in events:
        line = json.dumps(event.to_dict(), sort_keys=True, separators=(",", ":"))
        h.update(line.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


@dataclass(frozen=True)
class CompiledCampaign:
    """A compiled campaign: the source spec, the seed actually used, and
    the totally ordered event stream."""

    spec: ScenarioSpec
    seed: int
    events: tuple[ChurnEvent, ...]

    @property
    def num_events(self) -> int:
        """Events in the stream (markers and admin events included)."""
        return len(self.events)

    def digest(self) -> str:
        """The stream's :func:`trace_digest`."""
        return trace_digest(self.events)

    def counts(self) -> dict[str, int]:
        """Events per kind (diagnostic view)."""
        out: dict[str, int] = {kind.value: 0 for kind in EventKind}
        for event in self.events:
            out[event.kind.value] += 1
        return out


def _draw_arrivals(rng, load, duration: float) -> list[float]:
    """Thinning: candidate points at the envelope rate, each kept with
    probability rate(t)/envelope — an exact non-homogeneous Poisson
    sample for any bounded curve."""
    envelope = load.max_rate(duration)
    times: list[float] = []
    t = 0.0
    while True:
        t += float(rng.exponential(1.0 / envelope))
        if t >= duration:
            return times
        if float(rng.random()) * envelope <= load.rate_at(t, duration):
            times.append(t)


def compile_scenario(
    spec: ScenarioSpec, seed: int | None = None
) -> CompiledCampaign:
    """Compile ``spec`` into its deterministic event stream.

    ``seed`` defaults to ``spec.seed``.  Tenant IDs are campaign-wide
    arrival indices (0, 1, ...); departures/modifies that a lifetime pushes
    past the campaign horizon are dropped (the tenant survives the
    campaign), exactly like the plain churn synthesizer.
    """
    used_seed = spec.seed if seed is None else int(seed)
    rng = make_rng(used_seed)
    horizon = spec.duration_s
    bounds = spec.phase_bounds()
    starts = [start for _name, start, _end in bounds]

    def phase_of(t: float) -> str:
        return bounds[max(0, bisect_right(starts, t) - 1)][0]

    raw: list[ChurnEvent] = []
    tenants = 0
    for phase, (name, start, _end) in zip(spec.phases, bounds):
        raw.append(ChurnEvent(start, 0, EventKind.PHASE, phase=name))
        for action in phase.faults:
            raw.append(
                ChurnEvent(start + action.at_s, 0, EventKind(action.kind), switch=action.switch)
            )
        arrivals = [start + t for t in _draw_arrivals(rng, phase.load, phase.duration_s)]
        raw.extend(draw_lifecycle(
            rng, spec.workload, arrivals, horizon,
            phase.mean_lifetime_s, phase.modify_fraction, tenants,
        ))
        tenants += len(arrivals)

    # Burst-modify storms: one coin per stream-live tenant per burst, in
    # (phase, burst, tenant-id) order so the draw sequence is fixed.
    arrival_at = {e.tenant_id: e.time_s for e in raw if e.kind is EventKind.ARRIVAL}
    depart_at = {e.tenant_id: e.time_s for e in raw if e.kind is EventKind.DEPARTURE}
    for phase, (_name, start, _end) in zip(spec.phases, bounds):
        for burst in phase.bursts:
            at = start + burst.at_s
            live = sorted(
                t
                for t, arrived in arrival_at.items()
                if arrived <= at and depart_at.get(t, horizon + 1.0) > at
            )
            chosen = [t for t in live if float(rng.random()) < burst.fraction]
            burst_chains = make_sfcs(
                spec.workload.with_num_sfcs(len(chosen)), rng
            )
            for idx, tenant in enumerate(chosen):
                new_chain = replace(
                    burst_chains[idx],
                    tenant_id=tenant,
                    name=f"tenant-{tenant}-burst",
                )
                raw.append(ChurnEvent(at, 0, EventKind.MODIFY, tenant, new_chain))

    rank = list(EventKind)  # declaration order is same-instant replay order
    raw.sort(key=lambda e: (e.time_s, rank.index(e.kind), e.tenant_id, e.switch or ""))
    events = tuple(
        replace(e, seq=seq, phase=e.phase if e.phase is not None else phase_of(e.time_s))
        for seq, e in enumerate(raw)
    )
    return CompiledCampaign(spec=spec, seed=used_seed, events=events)


def save_campaign(path: str | Path, campaign: CompiledCampaign) -> None:
    """Write a compiled campaign as a :func:`~repro.controller.events.
    save_events` trace whose header also carries the spec and the trace
    digest — the file alone re-verifies and replays the run."""
    save_events(
        path, campaign.events, seed=campaign.seed, kind=CAMPAIGN_KIND,
        digest=campaign.digest(), spec=campaign.spec.to_dict(),
    )


def load_campaign(path: str | Path) -> CompiledCampaign:
    """Read a campaign written by :func:`save_campaign`, verifying the
    header digest and count against the events actually read (a corrupted
    or edited trace fails loudly with :class:`~repro.errors.ScenarioError`;
    a malformed event line with :class:`~repro.errors.WorkloadError`)."""
    header, events = read_trace(path)
    if not header:
        raise ScenarioError(f"{path} has no campaign header record")
    if header.get("kind") != CAMPAIGN_KIND:
        raise ScenarioError(f"{path} is not a scenario campaign trace")
    try:
        campaign = CompiledCampaign(
            spec=ScenarioSpec.from_dict(header["spec"]),
            seed=int(header["seed"]),
            events=tuple(events),
        )
        expected, count = str(header["digest"]), int(header["num_events"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(f"{path}: bad campaign header ({exc!r})") from None
    digest = campaign.digest()
    if digest != expected:
        raise ScenarioError(
            f"{path}: trace digest {digest} != header {expected} "
            "(corrupted or hand-edited trace)"
        )
    if len(events) != count:
        raise ScenarioError(f"{path}: {len(events)} events != header count {count}")
    return campaign


__all__ = [
    "CAMPAIGN_KIND",
    "CompiledCampaign",
    "compile_scenario",
    "load_campaign",
    "save_campaign",
    "trace_digest",
]
