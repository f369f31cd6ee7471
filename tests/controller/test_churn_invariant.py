"""The controller subsystem's acceptance tests (ISSUE criteria):

(a) after a 500+-event seeded churn stream, the controller's incremental
    ``PipelineState`` accounting is **bit-identical** to a from-scratch
    recomputation of the surviving placement;

(b) hitless updates: a ``process_batch`` interleaved between *any* two
    installer phases never observes a partially installed tenant — every
    probe packet executes one complete rule generation or none at all.
"""

import numpy as np
import pytest

from repro.controller import ChurnConfig, ChurnEngine, SfcController, synthesize_churn
from repro.controller.install import TENANT_MAP, TransactionalInstaller, WIRE_BASE
from repro.core.state import PipelineState
from repro.core.verify import check_placement
from repro.dataplane.packet import Packet
from repro.traffic.workload import WorkloadConfig, make_instance


CHURN = ChurnConfig(
    duration_s=30.0,
    arrival_rate_per_s=12.0,
    mean_lifetime_s=6.0,
    modify_fraction=0.25,
    workload=WorkloadConfig(
        num_sfcs=0, num_types=6, avg_chain_length=3, chain_length_spread=2,
        rules_min=1, rules_max=4, mean_bandwidth_gbps=1.0,
        max_bandwidth_gbps=4.0,
    ),
)


@pytest.fixture(scope="module")
def churn_events():
    events = synthesize_churn(CHURN, rng=20220522)
    assert len(events) >= 500, f"stream too short for the criterion: {len(events)}"
    return events


def fresh_controller() -> SfcController:
    instance = make_instance(
        CHURN.workload, max_recirculations=2, rng=20220522
    )
    return SfcController(instance)


def test_churn_invariant_bit_identical_accounting(churn_events):
    controller = fresh_controller()
    report = ChurnEngine(controller).replay(churn_events)
    assert report.num_events == len(churn_events)
    summary = report.summary()
    assert summary["admitted"] >= 100
    assert summary["evicted"] >= 50
    assert len(controller.tenants) >= 1  # stream horizon leaves survivors

    reference = PipelineState.from_placement(controller.placement)
    # Exact integer accounting, array for array ...
    assert np.array_equal(controller.state.entries, reference.entries)
    assert np.array_equal(controller.state.nf_blocks, reference.nf_blocks)
    assert np.array_equal(controller.state.physical, reference.physical)
    for s in range(controller.base.switch.stages):
        assert controller.state.blocks_at_stage(s) == reference.blocks_at_stage(s)
    # ... and the float backplane sum to the last bit.
    assert controller.state.backplane_gbps == reference.backplane_gbps

    # The surviving placement is valid under the paper's constraints.
    assert check_placement(controller.placement, require_all_types=False) == []

    # The data plane mirrors the survivors exactly: one map entry and one
    # live rule generation per tenant.
    installer = controller.installer
    assert set(installer.installed) == set(controller.tenants)
    _stage, map_table = controller.pipeline.find_table(TENANT_MAP)
    assert map_table.num_entries == len(controller.tenants)


def test_churn_stream_is_hitless_under_interleaved_batches(churn_events, monkeypatch):
    """Between every pair of installer phases, probe the pipeline with a
    batch of packets.  Each packet is steered (via the tenant map) to
    exactly one wire-ID generation and must traverse that generation's
    tables *completely* — any partial install would show as a strict subset,
    any cross-generation mix as a different table list."""
    signatures: dict[int, list[str]] = {}
    original = TransactionalInstaller._compile_generation

    def recording(self, sfc, assignment, wire_id):
        compiled = original(self, sfc, assignment, wire_id)
        signatures[wire_id] = [nf.table_name for nf in compiled]
        return compiled

    monkeypatch.setattr(TransactionalInstaller, "_compile_generation", recording)

    controller = fresh_controller()
    engine = ChurnEngine(controller)
    probed = {"batches": 0, "packets": 0, "wired": 0}
    current_tenant = [0]

    def probe(phase, result):
        assert result.ok, f"{phase}: {result.errors}"
        tenants = [current_tenant[0], *sorted(controller.tenants)[:2]]
        results = controller.pipeline.process_batch(
            [Packet(tenant_id=t, pass_id=1) for t in tenants], trace=True
        )
        probed["batches"] += 1
        for t, pr in zip(tenants, results):
            probed["packets"] += 1
            applied = [x for x in pr.applied_tables() if x != TENANT_MAP]
            wire = pr.packet.tenant_id
            if wire == t:
                # Not steered: the tenant map has no entry for it, so no
                # generation (and no partial generation) may process it.
                assert applied == [], f"{phase}: detached tenant {t} hit {applied}"
            else:
                probed["wired"] += 1
                assert wire >= WIRE_BASE
                assert applied == signatures[wire], (
                    f"{phase}: tenant {t} observed {applied}, expected the "
                    f"complete generation {signatures[wire]}"
                )

    controller.installer.on_batch = probe
    for event in churn_events:
        current_tenant[0] = event.tenant_id
        engine.apply(event)

    # The property was actually exercised, in volume, on steered traffic.
    assert probed["batches"] >= 1000
    assert probed["wired"] >= 1000
