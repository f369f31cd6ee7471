"""Property suite for the scenario DSL and compiler (Hypothesis):

* ``parse -> serialize -> parse`` is the identity, for dicts and JSON;
* the same ``(spec, seed)`` always compiles to a byte-identical JSONL
  trace (equal :func:`trace_digest`, equal event tuples);
* a saved campaign trace reloads verbatim (digest verified by the
  loader);
* ``shrunk`` rescales the campaign horizon exactly.
"""

import tempfile
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.scenarios.compile import (  # noqa: E402
    compile_scenario,
    load_campaign,
    save_campaign,
)
from repro.scenarios.dsl import (  # noqa: E402
    FAULT_KINDS,
    FaultAction,
    LoadCurve,
    ModifyBurst,
    PhaseSpec,
    ScenarioSpec,
    TopologySpec,
)
from tests.scenarios.conftest import TINY_SWITCH, TINY_WORKLOAD  # noqa: E402

_rates = st.floats(0.5, 4.0, allow_nan=False, allow_infinity=False)

_curves = st.one_of(
    st.builds(LoadCurve, kind=st.just("constant"), rate_per_s=_rates),
    st.builds(
        LoadCurve, kind=st.just("ramp"), rate_per_s=_rates, peak_per_s=_rates
    ),
    st.builds(
        LoadCurve,
        kind=st.just("sine"),
        rate_per_s=_rates,
        peak_per_s=_rates,
        period_s=st.one_of(st.none(), st.floats(0.5, 5.0)),
    ),
    st.builds(
        LoadCurve,
        kind=st.just("spike"),
        rate_per_s=_rates,
        peak_per_s=st.floats(1.0, 10.0),
        spike_start_frac=st.floats(0.0, 1.0),
        spike_width_frac=st.floats(0.05, 1.0),
    ),
)


@st.composite
def _phases(draw, name: str) -> PhaseSpec:
    duration = draw(st.floats(2.0, 5.0))
    faults = ()
    if draw(st.booleans()):
        faults = (
            FaultAction(
                at_s=draw(st.floats(0.0, duration * 0.9)),
                kind=draw(st.sampled_from(FAULT_KINDS)),
                switch=draw(st.sampled_from(("sw0", "sw1"))),
            ),
        )
    bursts = ()
    if draw(st.booleans()):
        bursts = (
            ModifyBurst(
                at_s=draw(st.floats(0.0, duration * 0.9)),
                fraction=draw(st.floats(0.1, 1.0)),
            ),
        )
    return PhaseSpec(
        name=name,
        duration_s=duration,
        load=draw(_curves),
        mean_lifetime_s=draw(st.floats(1.0, 8.0)),
        modify_fraction=draw(st.floats(0.0, 1.0)),
        faults=faults,
        bursts=bursts,
    )


@st.composite
def _scenarios(draw) -> ScenarioSpec:
    num_phases = draw(st.integers(1, 3))
    return ScenarioSpec(
        name=draw(st.sampled_from(("alpha", "beta", "gamma"))),
        description=draw(st.sampled_from(("", "generated campaign"))),
        seed=draw(st.integers(0, 2**31 - 1)),
        topology=TopologySpec(
            kind=draw(st.sampled_from(("full_mesh", "ring"))),
            num_switches=2,
            switch=TINY_SWITCH,
            max_recirculations=1,
            link_capacity_gbps=100.0,
        ),
        workload=TINY_WORKLOAD,
        phases=tuple(
            draw(_phases(f"phase{i}")) for i in range(num_phases)
        ),
    )


@settings(max_examples=40, deadline=None)
@given(spec=_scenarios())
def test_dict_round_trip_is_identity(spec):
    assert ScenarioSpec.from_dict(spec.to_dict()) == spec


@settings(max_examples=40, deadline=None)
@given(spec=_scenarios())
def test_json_round_trip_is_identity(spec):
    assert ScenarioSpec.from_json(spec.to_json()) == spec


@settings(max_examples=15, deadline=None)
@given(spec=_scenarios())
def test_same_seed_compiles_byte_identical(spec):
    first = compile_scenario(spec)
    second = compile_scenario(spec)
    assert first.digest() == second.digest()
    assert first.events == second.events
    # An explicit seed equal to the spec's default is the same stream.
    assert compile_scenario(spec, spec.seed).digest() == first.digest()


@settings(max_examples=10, deadline=None)
@given(spec=_scenarios())
def test_saved_campaign_reloads_verbatim(spec):
    campaign = compile_scenario(spec)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "campaign.jsonl"
        save_campaign(path, campaign)
        loaded = load_campaign(path)
    assert loaded.spec == spec
    assert loaded.seed == campaign.seed
    assert loaded.digest() == campaign.digest()
    assert loaded.events == campaign.events


@settings(max_examples=25, deadline=None)
@given(spec=_scenarios(), scale=st.floats(0.1, 2.0))
def test_shrunk_scales_the_horizon_exactly(spec, scale):
    small = spec.shrunk(scale)
    assert small.duration_s == pytest.approx(spec.duration_s * scale)
    assert len(small.phases) == len(spec.phases)
    for before, after in zip(spec.phases, small.phases):
        assert len(after.faults) == len(before.faults)
        assert len(after.bursts) == len(before.bursts)
