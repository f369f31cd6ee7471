"""Declarative scenario campaigns.

This package turns hand-written campaign specs into deterministic seeded
event streams that drive the real multi-switch fabric:

``repro.scenarios.dsl``
    The declarative spec layer — :class:`ScenarioSpec` (phases, load
    curves, fault schedules, burst-modify schedules) with exact
    JSON/YAML round-tripping.
``repro.scenarios.compile``
    Spec → stream compiler: a seeded, totally ordered
    :class:`~repro.controller.events.ChurnEvent` stream (phase markers,
    drains, undrains, reoptimize passes and tenant lifecycle) with a
    byte-stable trace digest, saved as an ordinary churn trace whose
    header also carries the spec and digest.
``repro.scenarios.runner``
    Replays a compiled campaign against a :class:`~repro.fabric.
    orchestrator.FabricOrchestrator` through the one churn dispatch
    (:class:`~repro.controller.events.ChurnEngine`), checking the fabric
    bit-identity invariant at every phase boundary and reporting
    per-phase + campaign-wide summaries.
``repro.scenarios.library``
    Production-shaped campaign library (diurnal, flash crowd, correlated
    failures at peak, rolling upgrade, noisy neighbor, burst modifies).

Capacity planning has no model of its own: ``benchmarks/bench_scale.py``
fills link-less ``FabricOrchestrator`` fleets of growing size.
"""

from repro.scenarios.compile import (
    CompiledCampaign,
    compile_scenario,
    load_campaign,
    save_campaign,
    trace_digest,
)
from repro.scenarios.dsl import (
    FaultAction,
    LoadCurve,
    ModifyBurst,
    PhaseSpec,
    ScenarioSpec,
    TopologySpec,
    load_spec,
    save_spec,
)
from repro.scenarios.library import CAMPAIGNS, campaign_names, get_campaign
from repro.scenarios.runner import (
    CampaignReport,
    PhaseReport,
    ScenarioRunner,
    build_fabric,
    run_campaign,
)

__all__ = [
    "CAMPAIGNS",
    "CampaignReport",
    "CompiledCampaign",
    "FaultAction",
    "LoadCurve",
    "ModifyBurst",
    "PhaseReport",
    "PhaseSpec",
    "ScenarioRunner",
    "ScenarioSpec",
    "TopologySpec",
    "build_fabric",
    "campaign_names",
    "compile_scenario",
    "get_campaign",
    "load_campaign",
    "load_spec",
    "run_campaign",
    "save_campaign",
    "save_spec",
    "trace_digest",
]
