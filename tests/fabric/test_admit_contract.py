"""The fabric's admission decisions, pinned by recorded value.

Each expected digest below is a constant recorded from the orchestrator,
not recomputed by the test.  Per case, one blake2b over every op of a
seeded churn stream replayed on a tight 4-switch fleet: the op's
``(op, ok, reason, detail, switches, spillover, stitched, rules_added,
rules_deleted)`` and the ``fabric.digest()`` after it.  A change to
routing, admission screening, stitching or re-homing that keeps these
decides every op the way the code that recorded them did — down to the
rejection text a tenant sees.

The fleet is small enough that the stream reaches every refusal the
screen and the placer can give (``backplane-exhausted``,
``memory-exhausted``, ``no-feasible-placement``), stitches across links,
spills over and re-homes modified tenants, and each case is held to
reaching all of them.  The cases: full mesh with and without the data
plane (the fabric digest does not see the data plane, so those two share
a digest; the second still runs every install), a ring (stitch tails
limited to neighbours), a switch drained and undrained mid-stream, and
the one-shard ``*_local`` entry points with escalation to the
fabric-wide ones, as the concurrent front end drives them.
"""

from __future__ import annotations

from hashlib import blake2b

import pytest

from repro.controller import ChurnConfig, synthesize_churn
from repro.core.spec import SwitchSpec
from repro.fabric import FabricOrchestrator, FabricTopology
from repro.traffic.workload import WorkloadConfig

EVENTS = 600
SHARD = SwitchSpec(
    stages=4, blocks_per_stage=4, block_bits=6400, rule_bits=64, capacity_gbps=40.0
)
LINK_GBPS = 20.0
CHAINS = WorkloadConfig(
    num_sfcs=0, num_types=6, avg_chain_length=4, chain_length_spread=2,
    rules_min=5, rules_max=60, mean_bandwidth_gbps=2.0, max_bandwidth_gbps=10.0,
)
#: Event indices at which the ``drain`` case drains and undrains ``sw1``.
DRAIN_AT, UNDRAIN_AT = 200, 400

#: name -> (seed, topology builder, with_dataplane, drain, local entry points)
CASES = {
    "mesh-cp-1": (1, "full_mesh", False, False, False),
    "mesh-cp-2": (2, "full_mesh", False, False, False),
    "mesh-dp-1": (1, "full_mesh", True, False, False),
    "mesh-dp-drain-3": (3, "full_mesh", True, True, False),
    "ring-cp-5": (5, "ring", False, False, False),
    "mesh-local-4": (4, "full_mesh", False, False, True),
}

#: blake2b-128 per case, recorded from the orchestrator (module docstring).
DIGESTS = {
    "mesh-cp-1": "5a39b589638a61c486f168afe0ba04c6",
    "mesh-cp-2": "ce98c6a1cf2be98df448e27fe993c0e6",
    "mesh-dp-1": "5a39b589638a61c486f168afe0ba04c6",
    "mesh-dp-drain-3": "7d4ba091e4198236d23044a6b597b676",
    "ring-cp-5": "e6fe1d2d2f11e18c5134b08ec53f61ed",
    "mesh-local-4": "729cdfecd8980989c04d20183fb5f5bf",
}


def events(seed: int):
    config = ChurnConfig(
        duration_s=EVENTS / 56.0 + 5.0,
        arrival_rate_per_s=28.0,
        mean_lifetime_s=6.0,
        modify_fraction=0.25,
        workload=CHAINS,
    )
    return synthesize_churn(config, rng=seed)[:EVENTS]


def apply(fabric: FabricOrchestrator, event, local: bool = False):
    kind = event.kind.value
    if kind == "arrival":
        if local:
            home = fabric.preferred_switch(event.sfc)
            result = home and fabric.admit_local(event.sfc, home)
            if result is not None:
                return result
        return fabric.admit(event.sfc)
    if kind == "departure":
        if local:
            result = fabric.evict_local(event.tenant_id)
            if result is not None:
                return result
        return fabric.evict(event.tenant_id)
    if local:
        result = fabric.modify_local(event.tenant_id, event.sfc)
        if result is not None:
            return result
    return fabric.modify(event.tenant_id, event.sfc)


def replay(case: str) -> tuple[str, FabricOrchestrator, set[str]]:
    """Replay ``case``'s stream; return its digest, the fabric and the
    refusal reasons seen."""
    seed, shape, with_dataplane, drain, local = CASES[case]
    topology = getattr(FabricTopology, shape)(
        4, spec=SHARD, link_capacity_gbps=LINK_GBPS
    )
    fabric = FabricOrchestrator(
        topology, num_types=CHAINS.num_types, with_dataplane=with_dataplane
    )
    h = blake2b(digest_size=16)
    reasons: set[str] = set()
    for index, event in enumerate(events(seed)):
        if drain and index == DRAIN_AT:
            report = fabric.drain("sw1")
            h.update(repr(("drain", report.rehomed, report.evicted)).encode())
            h.update(fabric.digest().encode())
        if drain and index == UNDRAIN_AT:
            fabric.undrain("sw1")
            h.update(fabric.digest().encode())
        r = apply(fabric, event, local)
        if r.reason is not None:
            reasons.add(r.reason)
        h.update(repr((
            r.op, r.ok, r.reason, r.detail, r.switches, r.spillover,
            r.stitched, r.rules_added, r.rules_deleted,
        )).encode())
        h.update(fabric.digest().encode())
    return h.hexdigest(), fabric, reasons


@pytest.mark.parametrize("case", sorted(CASES))
def test_admit_decisions_are_pinned(case: str) -> None:
    digest, fabric, reasons = replay(case)
    assert fabric.check_invariant() == []
    # The stream reaches every path the pin is meant to hold.
    assert {"backplane-exhausted", "memory-exhausted", "no-feasible-placement"} <= reasons
    counters = fabric.metrics_snapshot()["counters"]
    for path in ("stitched", "spillovers", "modify_rehomed"):
        assert counters.get(path, 0) > 0, path
    assert digest == DIGESTS[case]
