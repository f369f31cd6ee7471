"""Compiler semantics: total event ordering, phase attribution, fault and
burst scheduling, event records, and trace save/load with digest
verification."""

import json

import pytest

from repro.controller.events import ChurnEvent, EventKind
from repro.errors import ScenarioError
from repro.scenarios.compile import (
    compile_scenario,
    load_campaign,
    save_campaign,
    trace_digest,
)


@pytest.fixture
def campaign(tiny_spec):
    return compile_scenario(tiny_spec)


class TestStreamShape:
    def test_events_are_totally_ordered(self, campaign):
        rank = list(EventKind)
        keys = [
            (e.time_s, rank.index(e.kind), e.tenant_id, e.switch or "")
            for e in campaign.events
        ]
        assert keys == sorted(keys)
        assert [e.seq for e in campaign.events] == list(range(campaign.num_events))

    def test_each_phase_opens_with_its_marker(self, campaign, tiny_spec):
        markers = [e for e in campaign.events if e.kind == "phase"]
        assert [m.phase for m in markers] == [p.name for p in tiny_spec.phases]
        assert [m.time_s for m in markers] == [
            start for _n, start, _e in tiny_spec.phase_bounds()
        ]
        assert campaign.events[0].kind == "phase"

    def test_events_carry_their_enclosing_phase(self, campaign, tiny_spec):
        bounds = tiny_spec.phase_bounds()
        for event in campaign.events:
            if event.kind == "phase":
                continue
            name = next(
                n for n, start, end in bounds
                if start <= event.time_s < end or (end == bounds[-1][2] and event.time_s >= start)
            )
            assert event.phase == name

    def test_departures_follow_their_arrivals(self, campaign):
        arrival_at = {
            e.tenant_id: e.time_s for e in campaign.events if e.kind == "arrival"
        }
        horizon = campaign.spec.duration_s
        for event in campaign.events:
            if event.kind == "departure":
                assert event.tenant_id in arrival_at
                assert event.time_s > arrival_at[event.tenant_id]
                assert event.time_s < horizon
            if event.kind == "modify":
                assert event.tenant_id in arrival_at
                assert event.sfc is not None
                assert event.sfc.tenant_id == event.tenant_id

    def test_tenant_ids_are_arrival_ordinals(self, campaign):
        arrivals = [e for e in campaign.events if e.kind == "arrival"]
        assert [e.tenant_id for e in arrivals] == list(range(len(arrivals)))
        for e in arrivals:
            assert e.sfc is not None
            assert e.sfc.name == f"tenant-{e.tenant_id}"


class TestFaultsAndBursts:
    def test_faults_land_at_their_scheduled_instants(self, campaign):
        drains = [e for e in campaign.events if e.kind == "drain"]
        undrains = [e for e in campaign.events if e.kind == "undrain"]
        assert [(e.time_s, e.switch) for e in drains] == [(8.0, "sw1")]
        assert [(e.time_s, e.switch) for e in undrains] == [(12.0, "sw1")]
        assert all(e.phase == "fault" for e in drains + undrains)

    def test_burst_modifies_hit_only_stream_live_tenants(self, campaign):
        burst_at = 10.0  # phase "fault" starts at 6.0, burst at_s=4.0
        bursts = [
            e for e in campaign.events
            if e.kind == "modify" and e.sfc is not None
            and e.sfc.name.endswith("-burst")
        ]
        assert bursts, "the tiny campaign's burst selected no tenants"
        arrival_at = {
            e.tenant_id: e.time_s for e in campaign.events if e.kind == "arrival"
        }
        depart_at = {
            e.tenant_id: e.time_s
            for e in campaign.events
            if e.kind == "departure"
        }
        for event in bursts:
            assert event.time_s == burst_at
            assert arrival_at[event.tenant_id] <= burst_at
            assert depart_at.get(event.tenant_id, float("inf")) > burst_at


class TestEvents:
    def test_unknown_kind_rejected(self, campaign):
        record = dict(campaign.events[0].to_dict(), kind="explode")
        with pytest.raises(ValueError, match="not a valid EventKind"):
            ChurnEvent.from_dict(record)

    def test_event_dict_round_trip(self, campaign):
        for event in campaign.events:
            assert ChurnEvent.from_dict(event.to_dict()) == event


class TestTraceFiles:
    def test_save_load_round_trip(self, campaign, tmp_path):
        path = tmp_path / "trace.jsonl"
        save_campaign(path, campaign)
        loaded = load_campaign(path)
        assert loaded.spec == campaign.spec
        assert loaded.events == campaign.events
        assert loaded.digest() == campaign.digest()

    def test_corrupted_event_is_rejected(self, campaign, tmp_path):
        path = tmp_path / "trace.jsonl"
        save_campaign(path, campaign)
        lines = path.read_text().splitlines()
        doctored = json.loads(lines[-1])
        doctored["time_s"] += 1.0
        lines[-1] = json.dumps(doctored, sort_keys=True, separators=(",", ":"))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ScenarioError, match="digest"):
            load_campaign(path)

    def test_truncated_trace_is_rejected(self, campaign, tmp_path):
        path = tmp_path / "trace.jsonl"
        save_campaign(path, campaign)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-3]) + "\n")
        with pytest.raises(ScenarioError, match="digest"):
            load_campaign(path)

    def test_headerless_file_is_rejected(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text("")
        with pytest.raises(ScenarioError, match="header"):
            load_campaign(path)

    def test_foreign_header_is_rejected(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(json.dumps({"header": True, "kind": "churn"}) + "\n")
        with pytest.raises(ScenarioError, match="not a scenario campaign"):
            load_campaign(path)


class TestDeterminism:
    def test_digest_is_order_and_content_sensitive(self, campaign):
        events = list(campaign.events)
        assert trace_digest(events) == campaign.digest()
        assert trace_digest(events[::-1]) != campaign.digest()
        assert trace_digest(events[:-1]) != campaign.digest()

    def test_different_seeds_give_different_streams(self, tiny_spec):
        base = compile_scenario(tiny_spec)
        other = compile_scenario(tiny_spec, seed=tiny_spec.seed + 1)
        assert other.seed == tiny_spec.seed + 1
        assert other.digest() != base.digest()
