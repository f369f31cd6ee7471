"""The campaign acceptance suite: every library campaign, replayed from
its registered seed, must hold the fabric bit-identity invariant at every
phase boundary and replay deterministically."""

import pytest

from repro.errors import ScenarioError
from repro.scenarios.compile import compile_scenario
from repro.scenarios.library import CAMPAIGNS, campaign_names, get_campaign
from repro.scenarios.runner import run_campaign

#: The acceptance replay runs each campaign time-shrunk 5x; shapes (and
#: the seeded determinism being asserted) are unchanged, wall time is not.
SMOKE_SCALE = 0.2


def test_the_library_is_big_enough():
    # The ISSUE's floor: at least six distinct production-shaped campaigns.
    assert len(CAMPAIGNS) >= 6
    assert campaign_names() == sorted(CAMPAIGNS)


def test_unknown_campaign_name_raises():
    with pytest.raises(ScenarioError, match="unknown campaign"):
        get_campaign("black-friday")


@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_campaign_spec_is_coherent(name):
    spec = get_campaign(name)
    assert spec.name == name
    assert spec.seed != 0  # every library campaign pins its own seed
    assert spec.description
    assert len(spec.phases) >= 3
    # Specs are data: they must round-trip through their dict form.
    assert type(spec).from_dict(spec.to_dict()) == spec


@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_campaign_holds_the_invariant_at_every_phase_boundary(name):
    spec = get_campaign(name).shrunk(SMOKE_SCALE)
    fabric, report = run_campaign(spec)
    assert report.seed == spec.seed
    for phase in report.phases:
        assert phase.invariant_problems == [], (
            f"{name}/{phase.name}: {phase.invariant_problems}"
        )
    assert report.ok
    assert [p.name for p in report.phases] == [p.name for p in spec.phases]
    assert report.overall.summary()["admitted"] >= 1.0
    assert fabric.check_invariant() == []


@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_campaign_replays_deterministically(name):
    spec = get_campaign(name).shrunk(SMOKE_SCALE)
    assert (
        compile_scenario(spec).digest() == compile_scenario(spec).digest()
    )
    _, first = run_campaign(spec)
    _, second = run_campaign(spec)
    assert first.trace_digest == second.trace_digest
    assert first.final_digest == second.final_digest
    assert [p.digest for p in first.phases] == [p.digest for p in second.phases]


#: `trace_digest` of every library campaign shrunk as for `--smoke`, at its
#: own seed and at seed 3, recorded when campaigns had their own event
#: record and lifecycle draw; any change to either moves these.
TRACE_PINS = {
    "burst-modify": ("6550f4690a5ee441b58136d0db3ae286", "27acd331041f90b9418ec6914788a888"),
    "correlated-failure": ("7d848b00b8142818f487261af3f25cf6", "103c1de2f0dfccc10d078e3af3dbb809"),
    "defrag-cadence": ("6bf546cfa8625d9ee7d8e5b28f159e31", "76083ae0edc87a3842bb3401bd3e91d7"),
    "diurnal": ("44ad744d97fabeb8f6d3a0db5f9d43ee", "56a76b45617d34486ac3b26f6d2db379"),
    "flash-crowd": ("bccf65088fb85ab0bc9a4944c8f3c36d", "7753bbf5b6c8ef9c5bbe8889aacbcf83"),
    "noisy-neighbor": ("cdc8cec95c92b31515897c28a4658851", "74d0bdad744b204567bebb910d114ed5"),
    "rolling-upgrade": ("d5a9e6074f149502a19f3101576770ba", "617494d75cb82ca71cd6f98e1ae57d1f"),
    "steady-state": ("0c82dbb82eee60b47f8030eccc304ce6", "a87a56b437db18b662b62b7b37f548e7"),
}


@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_campaign_stream_is_pinned(name):
    spec = get_campaign(name).shrunk(SMOKE_SCALE)
    own, other = TRACE_PINS[name]
    assert compile_scenario(spec).digest() == own
    assert compile_scenario(spec, 3).digest() == other


def test_fault_campaigns_actually_drain():
    _, failure = run_campaign(get_campaign("correlated-failure").shrunk(SMOKE_SCALE))
    assert failure.overall.drains == 2
    assert failure.overall.undrains == 2
    _, rolling = run_campaign(get_campaign("rolling-upgrade").shrunk(SMOKE_SCALE))
    assert rolling.overall.drains == 4
    assert rolling.overall.undrains == 4


def test_burst_campaign_actually_storms():
    spec = get_campaign("burst-modify").shrunk(SMOKE_SCALE)
    campaign = compile_scenario(spec)
    storms = [
        e for e in campaign.events
        if e.kind == "modify" and e.sfc is not None
        and e.sfc.name.endswith("-burst")
    ]
    assert storms, "burst-modify compiled without any burst modifies"
