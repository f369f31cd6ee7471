"""The fabric's gauges after each op equal a full refresh.

A lifecycle op sets only the directory gauges and those of the switches
and links it touched; drain, promote, restore and re-optimization set
every gauge.  Replaying a seeded stream that stitches, spills over,
re-homes modified tenants, drains and undrains a switch and runs a
re-optimization pass, every gauge after every op must read what a full
refresh then writes.
"""

from __future__ import annotations

from repro.fabric import FabricOrchestrator, FabricTopology
from tests.fabric.test_admit_contract import CHAINS, LINK_GBPS, SHARD, apply, events


def _gauges(fabric: FabricOrchestrator) -> dict[str, float]:
    return {name: g.value for name, g in fabric.metrics.gauges.items()}


def test_gauges_after_every_op_equal_a_full_refresh():
    fabric = FabricOrchestrator(
        FabricTopology.full_mesh(4, spec=SHARD, link_capacity_gbps=LINK_GBPS),
        num_types=CHAINS.num_types,
        with_dataplane=False,
    )

    def check(step) -> None:
        after_op = _gauges(fabric)
        fabric._refresh_gauges()
        assert _gauges(fabric) == after_op, step

    check("construction")
    for index, event in enumerate(events(2)[:450]):
        if index == 150:
            fabric.drain("sw2")
            check("drain")
        if index == 250:
            fabric.undrain("sw2")
            check("undrain")
        if index == 350:
            report = fabric.reoptimize(mode="greedy", min_benefit=0.0)
            assert report.migration is not None and report.migration.executed > 0
            check("reoptimize")
        apply(fabric, event)
        check((index, event.kind.value, event.tenant_id))
    counters = fabric.metrics_snapshot()["counters"]
    for path in ("stitched", "spillovers", "modify_rehomed", "drain.rehomed"):
        assert counters.get(path, 0) > 0, path
    assert fabric.summary()["stitched_tenants"] > 0
    assert any(value > 0 for name, value in _gauges(fabric).items()
               if name.startswith("link_load_gbps."))
