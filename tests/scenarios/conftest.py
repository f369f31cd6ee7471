"""Shared fixtures for the scenario suite: one small three-phase campaign
exercising every event kind (load curves, faults, bursts, modifies) over a
tight 3-switch fabric, plus the library workload."""

import signal
from contextlib import contextmanager

import pytest

from repro.core.spec import SwitchSpec
from repro.scenarios.dsl import (
    FaultAction,
    LoadCurve,
    ModifyBurst,
    PhaseSpec,
    ScenarioSpec,
    TopologySpec,
)
from repro.traffic.workload import WorkloadConfig

#: Per-switch spec used throughout the suite: tight enough that a few
#: dozen tenants produce spillover and rejections.
TINY_SWITCH = SwitchSpec(
    stages=4, blocks_per_stage=6, block_bits=6400, rule_bits=64,
    capacity_gbps=60.0,
)

TINY_WORKLOAD = WorkloadConfig(
    num_sfcs=0, num_types=6, avg_chain_length=3, chain_length_spread=2,
    rules_min=1, rules_max=4, mean_bandwidth_gbps=1.0, max_bandwidth_gbps=4.0,
)


def make_tiny_spec(**overrides) -> ScenarioSpec:
    """A fast three-phase campaign touching every DSL feature: constant
    and ramp curves, a drain/undrain pair, a modify burst and a modify
    mix.  ``overrides`` replace top-level :class:`ScenarioSpec` fields."""
    fields = dict(
        name="tiny",
        description="three short phases exercising every event kind",
        seed=42,
        topology=TopologySpec(
            kind="full_mesh", num_switches=3, switch=TINY_SWITCH,
            max_recirculations=1, link_capacity_gbps=100.0,
        ),
        workload=TINY_WORKLOAD,
        phases=(
            PhaseSpec(
                name="fill", duration_s=6.0,
                load=LoadCurve(kind="constant", rate_per_s=5.0),
                mean_lifetime_s=6.0,
            ),
            PhaseSpec(
                name="fault", duration_s=8.0,
                load=LoadCurve(kind="ramp", rate_per_s=4.0, peak_per_s=8.0),
                mean_lifetime_s=5.0,
                modify_fraction=0.3,
                faults=(
                    FaultAction(at_s=2.0, kind="drain", switch="sw1"),
                    FaultAction(at_s=6.0, kind="undrain", switch="sw1"),
                ),
                bursts=(ModifyBurst(at_s=4.0, fraction=0.5),),
            ),
            PhaseSpec(
                name="settle", duration_s=5.0,
                load=LoadCurve(kind="constant", rate_per_s=3.0),
                mean_lifetime_s=4.0,
            ),
        ),
    )
    fields.update(overrides)
    return ScenarioSpec(**fields)


@contextmanager
def time_bound(seconds: float):
    """Fail with ``TimeoutError`` (not hang) when the body runs too long."""
    def expire(_signum, _frame):
        raise TimeoutError(f"no verdict within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def tiny_spec() -> ScenarioSpec:
    """The suite's standard small campaign."""
    return make_tiny_spec()
