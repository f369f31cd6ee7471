"""DSL validation and serialization: every constructor guard raises a
:class:`ScenarioError`, round-trips are exact, and ``shrunk`` rescales
time without changing the campaign's shape."""

import json
import math
from dataclasses import replace

import pytest

from repro.errors import ScenarioError
from repro.scenarios.compile import compile_scenario
from repro.scenarios.dsl import (
    FaultAction,
    LoadCurve,
    ModifyBurst,
    PhaseSpec,
    ScenarioSpec,
    load_spec,
    save_spec,
)
from tests.scenarios.conftest import make_tiny_spec, time_bound


class TestLoadCurve:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ScenarioError, match="unknown load curve"):
            LoadCurve(kind="sawtooth")

    def test_non_constant_curves_need_a_peak(self):
        for kind in ("ramp", "sine", "spike"):
            with pytest.raises(ScenarioError, match="peak_per_s"):
                LoadCurve(kind=kind, rate_per_s=2.0)

    def test_rates_must_be_positive(self):
        with pytest.raises(ScenarioError):
            LoadCurve(rate_per_s=0.0)
        with pytest.raises(ScenarioError):
            LoadCurve(kind="ramp", rate_per_s=1.0, peak_per_s=-2.0)

    def test_constant_rate(self):
        curve = LoadCurve(kind="constant", rate_per_s=3.0)
        assert curve.rate_at(0.0, 10.0) == 3.0
        assert curve.rate_at(9.9, 10.0) == 3.0
        assert curve.max_rate(10.0) == 3.0

    def test_ramp_is_linear_between_endpoints(self):
        curve = LoadCurve(kind="ramp", rate_per_s=2.0, peak_per_s=10.0)
        assert curve.rate_at(0.0, 10.0) == 2.0
        assert curve.rate_at(10.0, 10.0) == 10.0
        assert curve.rate_at(5.0, 10.0) == pytest.approx(6.0)

    def test_sine_troughs_at_phase_start_and_crests_mid_period(self):
        curve = LoadCurve(
            kind="sine", rate_per_s=4.0, peak_per_s=12.0, period_s=10.0
        )
        assert curve.rate_at(0.0, 40.0) == pytest.approx(4.0)
        assert curve.rate_at(5.0, 40.0) == pytest.approx(12.0)
        assert curve.rate_at(10.0, 40.0) == pytest.approx(4.0)
        assert curve.max_rate(40.0) == 12.0

    def test_spike_window_is_half_open(self):
        curve = LoadCurve(
            kind="spike", rate_per_s=2.0, peak_per_s=20.0,
            spike_start_frac=0.5, spike_width_frac=0.25,
        )
        assert curve.rate_at(4.9, 10.0) == 2.0
        assert curve.rate_at(5.0, 10.0) == 20.0
        assert curve.rate_at(7.4, 10.0) == 20.0
        assert curve.rate_at(7.5, 10.0) == 2.0

    def test_rates_never_exceed_the_thinning_envelope(self):
        for curve in (
            LoadCurve(kind="ramp", rate_per_s=1.0, peak_per_s=7.0),
            LoadCurve(kind="sine", rate_per_s=2.0, peak_per_s=9.0),
            LoadCurve(kind="spike", rate_per_s=3.0, peak_per_s=30.0),
        ):
            envelope = curve.max_rate(20.0)
            for i in range(81):
                assert curve.rate_at(i * 0.25, 20.0) <= envelope + 1e-12


class TestValidation:
    def test_fault_kinds(self):
        with pytest.raises(ScenarioError, match="unknown fault kind"):
            FaultAction(at_s=1.0, kind="reboot", switch="sw0")
        with pytest.raises(ScenarioError):
            FaultAction(at_s=-1.0, kind="drain", switch="sw0")
        with pytest.raises(ScenarioError):
            FaultAction(at_s=1.0, kind="drain", switch="")

    def test_burst_fraction_bounds(self):
        with pytest.raises(ScenarioError):
            ModifyBurst(at_s=1.0, fraction=0.0)
        with pytest.raises(ScenarioError):
            ModifyBurst(at_s=1.0, fraction=1.5)
        assert ModifyBurst(at_s=0.0, fraction=1.0).fraction == 1.0

    def test_fault_must_land_inside_its_phase(self):
        with pytest.raises(ScenarioError, match="outside"):
            PhaseSpec(
                name="p", duration_s=5.0,
                faults=(FaultAction(at_s=5.0, kind="drain", switch="sw0"),),
            )

    def test_burst_must_land_inside_its_phase(self):
        with pytest.raises(ScenarioError, match="outside"):
            PhaseSpec(
                name="p", duration_s=5.0,
                bursts=(ModifyBurst(at_s=6.0, fraction=0.5),),
            )

    def test_scenario_needs_phases_with_unique_names(self, tiny_spec):
        with pytest.raises(ScenarioError, match="no phases"):
            replace(tiny_spec, phases=())
        with pytest.raises(ScenarioError, match="repeat"):
            replace(tiny_spec, phases=(tiny_spec.phases[0],) * 2)

    def test_fault_switch_must_exist_in_topology(self, tiny_spec):
        bad = PhaseSpec(
            name="bad", duration_s=5.0,
            faults=(FaultAction(at_s=1.0, kind="drain", switch="sw99"),),
        )
        with pytest.raises(ScenarioError, match="unknown switch"):
            replace(tiny_spec, phases=tiny_spec.phases + (bad,))


class TestSpecGeometry:
    def test_duration_and_phase_bounds(self, tiny_spec):
        assert tiny_spec.duration_s == pytest.approx(19.0)
        bounds = tiny_spec.phase_bounds()
        assert [name for name, _s, _e in bounds] == ["fill", "fault", "settle"]
        assert bounds[0][1:] == (0.0, 6.0)
        assert bounds[1][1:] == (6.0, 14.0)
        assert bounds[2][1:] == (14.0, 19.0)

    def test_topology_build_matches_names(self, tiny_spec):
        topology = tiny_spec.topology.build()
        assert topology.switch_names == tiny_spec.topology.switch_names
        assert len(topology.switch_names) == 3

    def test_shrunk_rescales_every_time_field(self, tiny_spec):
        small = tiny_spec.shrunk(0.5)
        assert small.duration_s == pytest.approx(tiny_spec.duration_s * 0.5)
        fault = small.phases[1]
        assert fault.duration_s == pytest.approx(4.0)
        assert fault.mean_lifetime_s == pytest.approx(2.5)
        assert [a.at_s for a in fault.faults] == [1.0, 3.0]
        assert [b.at_s for b in fault.bursts] == [2.0]
        # Rates are untouched: shapes compress, intensities do not.
        assert fault.load.rate_per_s == tiny_spec.phases[1].load.rate_per_s

    def test_shrunk_rescales_sine_periods(self):
        spec = make_tiny_spec(
            phases=(
                PhaseSpec(
                    name="p", duration_s=10.0,
                    load=LoadCurve(
                        kind="sine", rate_per_s=2.0, peak_per_s=6.0,
                        period_s=4.0,
                    ),
                ),
            ),
        )
        assert spec.shrunk(0.25).phases[0].load.period_s == pytest.approx(1.0)

    def test_shrunk_rejects_nonpositive_scale(self, tiny_spec):
        with pytest.raises(ScenarioError):
            tiny_spec.shrunk(0.0)


class TestSerialization:
    def test_dict_round_trip_is_identity(self, tiny_spec):
        assert ScenarioSpec.from_dict(tiny_spec.to_dict()) == tiny_spec

    def test_json_round_trip_is_identity(self, tiny_spec):
        assert ScenarioSpec.from_json(tiny_spec.to_json()) == tiny_spec

    def test_garbage_json_raises_scenario_error(self):
        with pytest.raises(ScenarioError, match="unparseable"):
            ScenarioSpec.from_json("{not json")

    def test_save_load_json_file(self, tiny_spec, tmp_path):
        path = tmp_path / "tiny.json"
        save_spec(path, tiny_spec)
        assert load_spec(path) == tiny_spec

    def test_save_load_yaml_file(self, tiny_spec, tmp_path):
        pytest.importorskip("yaml")
        path = tmp_path / "tiny.yaml"
        save_spec(path, tiny_spec)
        assert load_spec(path) == tiny_spec

    def test_yaml_spec_must_be_a_mapping(self, tmp_path):
        pytest.importorskip("yaml")
        path = tmp_path / "bad.yml"
        path.write_text("- just\n- a\n- list\n")
        with pytest.raises(ScenarioError, match="not a mapping"):
            load_spec(path)

    def test_floats_survive_json_exactly(self, tiny_spec):
        odd = replace(
            tiny_spec,
            phases=(
                replace(tiny_spec.phases[0], duration_s=math.pi),
            ) + tiny_spec.phases[1:],
        )
        back = ScenarioSpec.from_json(odd.to_json())
        assert back.phases[0].duration_s == math.pi


def _set(path, value):
    """A mutation of the tiny spec's dict form: ``path`` walks keys and
    list indices; ``value`` is ``...`` to delete the last key."""
    def mutate(record):
        *walk, last = path
        node = record
        for key in walk:
            node = node[key]
        if value is ...:
            del node[last]
        else:
            node[last] = value
        return record
    return mutate


MALFORMED = {
    "nan-rate": _set(("phases", 0, "load", "rate_per_s"), math.nan),
    "inf-duration": _set(("phases", 1, "duration_s"), math.inf),
    "nan-workload-bandwidth": _set(("workload", "mean_bandwidth_gbps"), math.nan),
    "unbounded-rate": _set(("phases", 0, "load", "rate_per_s"), 1e12),
    "missing-name": _set(("name",), ...),
    "missing-fault-at": _set(("phases", 1, "faults", 0, "at_s"), ...),
    "phases-null": _set(("phases",), None),
    "topology-list": _set(("topology",), []),
    "load-string": _set(("phases", 0, "load"), "constant"),
    "switch-list": _set(("topology", "switch"), [4, 6]),
    "duration-string": _set(("phases", 0, "duration_s"), "abc"),
    "seed-string": _set(("seed",), "x"),
    "seed-negative": _set(("seed",), -1),
    "num-switches-fraction": _set(("topology", "num_switches"), 2.5),
    "rule-bits-zero": _set(("topology", "switch", "rule_bits"), 0),
    "workload-unknown-key": _set(("workload", "bogus"), 1),
    "phase-name-number": _set(("phases", 0, "name"), 7),
    "record-list": lambda record: [record],
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_spec_is_a_scenario_error_within_a_time_bound(case):
    text = json.dumps(MALFORMED[case](make_tiny_spec().to_dict()))
    with time_bound(5.0), pytest.raises(ScenarioError):
        compile_scenario(ScenarioSpec.from_json(text))
