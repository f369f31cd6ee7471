"""The declarative scenario DSL: campaign specs as frozen dataclasses.

A :class:`ScenarioSpec` is the full description of one campaign — a fabric
topology, a chain workload, and an ordered list of :class:`PhaseSpec`
phases, each with its own arrival :class:`LoadCurve`, tenant lifetime,
modify mix, scheduled :class:`FaultAction` drains/undrains, and
:class:`ModifyBurst` storms.  Specs are pure data: they round-trip through
``to_dict``/``from_dict`` *exactly* (field for field, float for float), so
``parse -> serialize -> parse`` is the identity — the property the
Hypothesis suite in ``tests/scenarios/test_properties_dsl.py`` pins down.

Files are JSON by default (:func:`save_spec`/:func:`load_spec`); ``.yaml``
/``.yml`` paths work when PyYAML is importable and raise a clear
:class:`~repro.errors.ScenarioError` when it is not (the CI image installs
it; the library never hard-depends on it).

Every malformed spec — a missing key, a list where a mapping belongs, a
string, ``null`` or NaN where a number belongs, an arrival rate the
compiler could not finish — ends in :class:`~repro.errors.ScenarioError`
at construction or parse time, never in a bare exception or a hang later.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, replace
from numbers import Integral, Real
from pathlib import Path

from repro.core.spec import SwitchSpec
from repro.errors import ReproError, ScenarioError
from repro.fabric.topology import FabricTopology
from repro.traffic.workload import WorkloadConfig

try:  # pragma: no cover - exercised via the YAML-specific tests
    import yaml as _yaml
except ImportError:  # pragma: no cover
    _yaml = None

#: Load-curve shapes the compiler understands.
CURVE_KINDS = ("constant", "ramp", "sine", "spike")

#: Administrative actions a fault schedule may request.
FAULT_KINDS = ("drain", "undrain", "reoptimize")

#: Topology builders a spec may name.
TOPOLOGY_KINDS = ("full_mesh", "ring")

#: Upper bound on a phase's expected arrival draws (peak rate x duration).
#: The library's busiest phase draws ~600; past this bound the compiler's
#: thinning loop would run for minutes, so the spec is refused instead.
MAX_PHASE_ARRIVALS = 1_000_000


def _check_number(where: str, value, integer: bool = False) -> None:
    """Refuse what JSON can put in a numeric field besides a number — a
    string, ``null``, a boolean — and the non-finite floats, which pass
    every ``<=`` guard because NaN compares false."""
    kind = Integral if integer else Real
    if (
        isinstance(value, bool)
        or not isinstance(value, kind)
        or (isinstance(value, float) and not math.isfinite(value))
    ):
        expected = "an integer" if integer else "a finite number"
        raise ScenarioError(f"{where} must be {expected}, got {value!r}")


def _check_text(where: str, value) -> None:
    if not isinstance(value, str):
        raise ScenarioError(f"{where} must be a string, got {value!r}")


def _checked_record(cls, record, where: str) -> dict:
    """``record`` after checking it is a mapping whose values fit ``cls``'s
    scalar fields: an ``int``-defaulted field takes an integer, a
    ``float``-defaulted one a finite number."""
    if not isinstance(record, dict):
        raise ScenarioError(f"{where} must be a mapping, got {record!r}")
    for f in fields(cls):
        if f.name in record:
            _check_number(
                f"{where}.{f.name}", record[f.name],
                integer=isinstance(f.default, int),
            )
    return record


@dataclass(frozen=True)
class LoadCurve:
    """Arrival-rate shape over one phase, in tenants per second.

    ``constant`` holds ``rate_per_s``; ``ramp`` moves linearly from
    ``rate_per_s`` to ``peak_per_s`` across the phase; ``sine`` oscillates
    between ``rate_per_s`` (trough) and ``peak_per_s`` (crest) with period
    ``period_s`` (defaulting to the phase duration); ``spike`` holds
    ``rate_per_s`` except for a burst window of ``peak_per_s`` starting at
    ``spike_start_frac`` of the phase and lasting ``spike_width_frac`` of
    it.
    """

    kind: str = "constant"
    rate_per_s: float = 5.0
    peak_per_s: float | None = None
    period_s: float | None = None
    spike_start_frac: float = 0.5
    spike_width_frac: float = 0.1

    def __post_init__(self) -> None:
        if self.kind not in CURVE_KINDS:
            raise ScenarioError(
                f"unknown load curve kind {self.kind!r}; choices: {CURVE_KINDS}"
            )
        for name in ("rate_per_s", "spike_start_frac", "spike_width_frac"):
            _check_number(name, getattr(self, name))
        for name in ("peak_per_s", "period_s"):
            if getattr(self, name) is not None:
                _check_number(name, getattr(self, name))
        if self.rate_per_s <= 0:
            raise ScenarioError("rate_per_s must be positive")
        if self.kind != "constant" and self.peak_per_s is None:
            raise ScenarioError(f"{self.kind} curves need peak_per_s")
        if self.peak_per_s is not None and self.peak_per_s <= 0:
            raise ScenarioError("peak_per_s must be positive")
        if self.period_s is not None and self.period_s <= 0:
            raise ScenarioError("period_s must be positive")
        if not 0.0 <= self.spike_start_frac <= 1.0:
            raise ScenarioError("spike_start_frac must be in [0, 1]")
        if not 0.0 < self.spike_width_frac <= 1.0:
            raise ScenarioError("spike_width_frac must be in (0, 1]")

    def rate_at(self, t: float, duration: float) -> float:
        """Instantaneous arrival rate ``t`` seconds into a phase of
        ``duration`` seconds."""
        if self.kind == "constant":
            return self.rate_per_s
        assert self.peak_per_s is not None
        if self.kind == "ramp":
            frac = 0.0 if duration <= 0 else min(max(t / duration, 0.0), 1.0)
            return self.rate_per_s + (self.peak_per_s - self.rate_per_s) * frac
        if self.kind == "sine":
            period = self.period_s if self.period_s is not None else duration
            mid = (self.rate_per_s + self.peak_per_s) / 2.0
            amp = (self.peak_per_s - self.rate_per_s) / 2.0
            # Trough at t=0 so a phase ramps up into its crest.
            return mid - amp * math.cos(2.0 * math.pi * t / period)
        start = self.spike_start_frac * duration
        stop = start + self.spike_width_frac * duration
        return self.peak_per_s if start <= t < stop else self.rate_per_s

    def max_rate(self, duration: float) -> float:
        """An upper bound on :meth:`rate_at` over the phase — the thinning
        envelope the compiler samples against."""
        if self.peak_per_s is None:
            return self.rate_per_s
        return max(self.rate_per_s, self.peak_per_s)

    def to_dict(self) -> dict:
        """JSON-native form (exact ``from_dict`` inverse)."""
        return {
            "kind": self.kind,
            "rate_per_s": self.rate_per_s,
            "peak_per_s": self.peak_per_s,
            "period_s": self.period_s,
            "spike_start_frac": self.spike_start_frac,
            "spike_width_frac": self.spike_width_frac,
        }

    @classmethod
    def from_dict(cls, record: dict) -> "LoadCurve":
        """Inverse of :meth:`to_dict`."""
        return cls(
            kind=record["kind"],
            rate_per_s=record["rate_per_s"],
            peak_per_s=record.get("peak_per_s"),
            period_s=record.get("period_s"),
            spike_start_frac=record.get("spike_start_frac", 0.5),
            spike_width_frac=record.get("spike_width_frac", 0.1),
        )


@dataclass(frozen=True)
class FaultAction:
    """One scheduled administrative event inside a phase: ``drain`` or
    ``undrain`` of a named switch at ``at_s`` seconds after phase start, or
    a fabric-wide ``reoptimize`` pass (no target switch required — any
    named switch is accepted and ignored)."""

    at_s: float
    kind: str
    switch: str = ""

    def __post_init__(self) -> None:
        _check_number("fault at_s", self.at_s)
        _check_text("fault switch", self.switch)
        if self.at_s < 0:
            raise ScenarioError("fault at_s must be >= 0")
        if self.kind not in FAULT_KINDS:
            raise ScenarioError(
                f"unknown fault kind {self.kind!r}; choices: {FAULT_KINDS}"
            )
        if self.kind != "reoptimize" and not self.switch:
            raise ScenarioError("fault needs a switch name")

    def to_dict(self) -> dict:
        """JSON-native form (exact ``from_dict`` inverse)."""
        return {"at_s": self.at_s, "kind": self.kind, "switch": self.switch}

    @classmethod
    def from_dict(cls, record: dict) -> "FaultAction":
        """Inverse of :meth:`to_dict`."""
        return cls(
            at_s=record["at_s"],
            kind=record["kind"],
            switch=record.get("switch", ""),
        )


@dataclass(frozen=True)
class ModifyBurst:
    """A modify storm: at ``at_s`` seconds into the phase, each tenant
    live at that instant re-negotiates its chain with probability
    ``fraction`` (one coin per tenant, drawn from the campaign seed)."""

    at_s: float
    fraction: float

    def __post_init__(self) -> None:
        _check_number("burst at_s", self.at_s)
        _check_number("burst fraction", self.fraction)
        if self.at_s < 0:
            raise ScenarioError("burst at_s must be >= 0")
        if not 0.0 < self.fraction <= 1.0:
            raise ScenarioError("burst fraction must be in (0, 1]")

    def to_dict(self) -> dict:
        """JSON-native form (exact ``from_dict`` inverse)."""
        return {"at_s": self.at_s, "fraction": self.fraction}

    @classmethod
    def from_dict(cls, record: dict) -> "ModifyBurst":
        """Inverse of :meth:`to_dict`."""
        return cls(at_s=record["at_s"], fraction=record["fraction"])


@dataclass(frozen=True)
class PhaseSpec:
    """One named campaign phase: a duration, an arrival curve, tenant
    lifetime/modify behaviour, and scheduled faults/bursts (offsets are
    seconds after phase start and must land inside the phase)."""

    name: str
    duration_s: float
    load: LoadCurve = field(default_factory=LoadCurve)
    mean_lifetime_s: float = 8.0
    modify_fraction: float = 0.0
    faults: tuple[FaultAction, ...] = ()
    bursts: tuple[ModifyBurst, ...] = ()

    def __post_init__(self) -> None:
        _check_text("phase name", self.name)
        if not self.name:
            raise ScenarioError("phases need a non-empty name")
        for name in ("duration_s", "mean_lifetime_s", "modify_fraction"):
            _check_number(f"phase {self.name!r}: {name}", getattr(self, name))
        if self.duration_s <= 0:
            raise ScenarioError(f"phase {self.name!r}: duration must be positive")
        if self.mean_lifetime_s <= 0:
            raise ScenarioError(
                f"phase {self.name!r}: mean lifetime must be positive"
            )
        if not 0.0 <= self.modify_fraction <= 1.0:
            raise ScenarioError(
                f"phase {self.name!r}: modify_fraction must be in [0, 1]"
            )
        arrivals = self.load.max_rate(self.duration_s) * self.duration_s
        if arrivals > MAX_PHASE_ARRIVALS:
            raise ScenarioError(
                f"phase {self.name!r}: peak rate x duration = {arrivals:.3g} "
                f"arrival draws, above the {MAX_PHASE_ARRIVALS:,} bound"
            )
        object.__setattr__(self, "faults", tuple(self.faults))
        object.__setattr__(self, "bursts", tuple(self.bursts))
        for action in self.faults:
            if action.at_s >= self.duration_s:
                raise ScenarioError(
                    f"phase {self.name!r}: fault at {action.at_s}s falls "
                    f"outside the {self.duration_s}s phase"
                )
        for burst in self.bursts:
            if burst.at_s >= self.duration_s:
                raise ScenarioError(
                    f"phase {self.name!r}: burst at {burst.at_s}s falls "
                    f"outside the {self.duration_s}s phase"
                )

    def to_dict(self) -> dict:
        """JSON-native form (exact ``from_dict`` inverse)."""
        return {
            "name": self.name,
            "duration_s": self.duration_s,
            "load": self.load.to_dict(),
            "mean_lifetime_s": self.mean_lifetime_s,
            "modify_fraction": self.modify_fraction,
            "faults": [a.to_dict() for a in self.faults],
            "bursts": [b.to_dict() for b in self.bursts],
        }

    @classmethod
    def from_dict(cls, record: dict) -> "PhaseSpec":
        """Inverse of :meth:`to_dict`."""
        return cls(
            name=record["name"],
            duration_s=record["duration_s"],
            load=LoadCurve.from_dict(record["load"]),
            mean_lifetime_s=record.get("mean_lifetime_s", 8.0),
            modify_fraction=record.get("modify_fraction", 0.0),
            faults=tuple(
                FaultAction.from_dict(a) for a in record.get("faults", ())
            ),
            bursts=tuple(
                ModifyBurst.from_dict(b) for b in record.get("bursts", ())
            ),
        )


@dataclass(frozen=True)
class TopologySpec:
    """The fabric a campaign runs on: a named builder shape (``full_mesh``
    or ``ring``), switch count, the per-switch :class:`SwitchSpec`, the
    recirculation budget and link capacity — enough to rebuild the exact
    :class:`~repro.fabric.topology.FabricTopology`."""

    kind: str = "full_mesh"
    num_switches: int = 4
    switch: SwitchSpec = field(default_factory=SwitchSpec)
    max_recirculations: int = 2
    link_capacity_gbps: float = 400.0

    def __post_init__(self) -> None:
        if self.kind not in TOPOLOGY_KINDS:
            raise ScenarioError(
                f"unknown topology kind {self.kind!r}; choices: {TOPOLOGY_KINDS}"
            )
        _check_number("num_switches", self.num_switches, integer=True)
        _check_number("max_recirculations", self.max_recirculations, integer=True)
        _check_number("link_capacity_gbps", self.link_capacity_gbps)
        if self.num_switches < 1:
            raise ScenarioError("num_switches must be >= 1")
        if self.max_recirculations < 0:
            raise ScenarioError("max_recirculations must be >= 0")
        if self.link_capacity_gbps <= 0:
            raise ScenarioError("link_capacity_gbps must be positive")

    @property
    def switch_names(self) -> list[str]:
        """Switch names the builder will create, in canonical sorted
        order (matching :attr:`FabricTopology.switch_names`)."""
        return sorted(f"sw{i}" for i in range(self.num_switches))

    def build(self) -> FabricTopology:
        """Materialize the described :class:`FabricTopology`."""
        builder = (
            FabricTopology.full_mesh
            if self.kind == "full_mesh"
            else FabricTopology.ring
        )
        return builder(
            self.num_switches,
            spec=self.switch,
            link_capacity_gbps=self.link_capacity_gbps,
            max_recirculations=self.max_recirculations,
        )

    def to_dict(self) -> dict:
        """JSON-native form (exact ``from_dict`` inverse)."""
        return {
            "kind": self.kind,
            "num_switches": self.num_switches,
            "switch": self.switch.to_dict(),
            "max_recirculations": self.max_recirculations,
            "link_capacity_gbps": self.link_capacity_gbps,
        }

    @classmethod
    def from_dict(cls, record: dict) -> "TopologySpec":
        """Inverse of :meth:`to_dict`."""
        return cls(
            kind=record["kind"],
            num_switches=record["num_switches"],
            switch=SwitchSpec.from_dict(
                _checked_record(SwitchSpec, record["switch"], "topology.switch")
            ),
            max_recirculations=record["max_recirculations"],
            link_capacity_gbps=record["link_capacity_gbps"],
        )


def _workload_to_dict(workload: WorkloadConfig) -> dict:
    """JSON-native form of a :class:`WorkloadConfig` (all scalar fields)."""
    return {
        "num_sfcs": workload.num_sfcs,
        "num_types": workload.num_types,
        "avg_chain_length": workload.avg_chain_length,
        "chain_length_spread": workload.chain_length_spread,
        "rules_min": workload.rules_min,
        "rules_max": workload.rules_max,
        "mean_bandwidth_gbps": workload.mean_bandwidth_gbps,
        "bandwidth_sigma": workload.bandwidth_sigma,
        "min_bandwidth_gbps": workload.min_bandwidth_gbps,
        "max_bandwidth_gbps": workload.max_bandwidth_gbps,
    }


def _workload_from_dict(record: dict) -> WorkloadConfig:
    """Inverse of :func:`_workload_to_dict`."""
    return WorkloadConfig(**_checked_record(WorkloadConfig, record, "workload"))


@dataclass(frozen=True)
class ScenarioSpec:
    """A full campaign: name, seed, fabric topology, chain workload,
    partitioner, and the ordered phases.  Fault schedules are validated
    against the topology's switch names at construction time."""

    name: str
    topology: TopologySpec = field(default_factory=TopologySpec)
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)
    phases: tuple[PhaseSpec, ...] = ()
    seed: int = 0
    partitioner: str = "hash"
    description: str = ""

    def __post_init__(self) -> None:
        for name in ("name", "partitioner", "description"):
            _check_text(f"scenario {name}", getattr(self, name))
        if not self.name:
            raise ScenarioError("scenarios need a non-empty name")
        _check_number("scenario seed", self.seed, integer=True)
        if self.seed < 0:
            raise ScenarioError(f"scenario seed must be >= 0, got {self.seed}")
        object.__setattr__(self, "phases", tuple(self.phases))
        if not self.phases:
            raise ScenarioError(f"scenario {self.name!r} has no phases")
        names = {p.name for p in self.phases}
        if len(names) != len(self.phases):
            raise ScenarioError(f"scenario {self.name!r}: phase names repeat")
        valid = set(self.topology.switch_names)
        for phase in self.phases:
            for action in phase.faults:
                if action.switch and action.switch not in valid:
                    raise ScenarioError(
                        f"scenario {self.name!r}, phase {phase.name!r}: fault "
                        f"targets unknown switch {action.switch!r}"
                    )

    @property
    def duration_s(self) -> float:
        """Total campaign horizon (sum of phase durations)."""
        return sum(p.duration_s for p in self.phases)

    def phase_bounds(self) -> list[tuple[str, float, float]]:
        """``(name, start_s, end_s)`` per phase, in campaign time."""
        bounds = []
        t = 0.0
        for phase in self.phases:
            bounds.append((phase.name, t, t + phase.duration_s))
            t += phase.duration_s
        return bounds

    def shrunk(self, time_scale: float) -> "ScenarioSpec":
        """A proportionally shorter copy — every phase duration, fault
        offset, burst offset and sine period multiplied by ``time_scale``
        (rates untouched, so ``--smoke`` runs compress wall time while
        keeping the campaign's shape)."""
        if time_scale <= 0:
            raise ScenarioError("time_scale must be positive")
        phases = []
        for phase in self.phases:
            load = phase.load
            if load.period_s is not None:
                load = replace(load, period_s=load.period_s * time_scale)
            phases.append(
                replace(
                    phase,
                    duration_s=phase.duration_s * time_scale,
                    load=load,
                    mean_lifetime_s=phase.mean_lifetime_s * time_scale,
                    faults=tuple(
                        replace(a, at_s=a.at_s * time_scale)
                        for a in phase.faults
                    ),
                    bursts=tuple(
                        replace(b, at_s=b.at_s * time_scale)
                        for b in phase.bursts
                    ),
                )
            )
        return replace(self, phases=tuple(phases))

    def to_dict(self) -> dict:
        """JSON-native form (exact ``from_dict`` inverse)."""
        return {
            "name": self.name,
            "description": self.description,
            "seed": self.seed,
            "partitioner": self.partitioner,
            "topology": self.topology.to_dict(),
            "workload": _workload_to_dict(self.workload),
            "phases": [p.to_dict() for p in self.phases],
        }

    @classmethod
    def from_dict(cls, record: dict) -> "ScenarioSpec":
        """Inverse of :meth:`to_dict`.  Any malformed record — a missing
        key, a wrong container type, an invalid workload or switch — raises
        :class:`ScenarioError`."""
        try:
            return cls(
                name=record["name"],
                description=record.get("description", ""),
                seed=record.get("seed", 0),
                partitioner=record.get("partitioner", "hash"),
                topology=TopologySpec.from_dict(record["topology"]),
                workload=_workload_from_dict(record["workload"]),
                phases=tuple(PhaseSpec.from_dict(p) for p in record["phases"]),
            )
        except ScenarioError:
            raise
        except KeyError as exc:
            raise ScenarioError(f"malformed scenario spec: missing key {exc}") from exc
        except (
            ReproError, TypeError, ValueError, AttributeError, ArithmeticError
        ) as exc:
            raise ScenarioError(
                f"malformed scenario spec: {type(exc).__name__}: {exc}"
            ) from exc

    def to_json(self) -> str:
        """Canonical JSON text (sorted keys, 2-space indent)."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        """Inverse of :meth:`to_json`."""
        try:
            record = json.loads(text)
        except ValueError as exc:
            raise ScenarioError(f"unparseable scenario JSON: {exc}") from exc
        return cls.from_dict(record)


def _is_yaml_path(path: Path) -> bool:
    return path.suffix.lower() in (".yaml", ".yml")


def _require_yaml(path: Path):
    if _yaml is None:
        raise ScenarioError(
            f"{path} is a YAML spec but PyYAML is not installed; "
            "use a .json spec or install pyyaml"
        )
    return _yaml


def save_spec(path: str | Path, spec: ScenarioSpec) -> None:
    """Write ``spec`` to ``path`` — YAML for ``.yaml``/``.yml`` suffixes
    (requires PyYAML), canonical JSON otherwise."""
    path = Path(path)
    if _is_yaml_path(path):
        yaml = _require_yaml(path)
        text = yaml.safe_dump(spec.to_dict(), sort_keys=True)
    else:
        text = spec.to_json()
    path.write_text(text, encoding="utf-8")


def load_spec(path: str | Path) -> ScenarioSpec:
    """Read a spec written by :func:`save_spec` (or by hand)."""
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    if _is_yaml_path(path):
        yaml = _require_yaml(path)
        try:
            record = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise ScenarioError(f"unparseable YAML spec {path}: {exc}") from exc
        if not isinstance(record, dict):
            raise ScenarioError(f"YAML spec {path} is not a mapping")
        return ScenarioSpec.from_dict(record)
    return ScenarioSpec.from_json(text)
