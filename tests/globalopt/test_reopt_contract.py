"""The global re-optimizer's decisions, pinned by recorded value.

Each expected value below is a constant recorded from the re-optimizer, not
recomputed by the test.  Per case: the digest of the solver's target plan for
every tenant (``GlobalSolution.plans``), the tenants it kept where they are,
the migration plan's ``(tenant, kind, target)`` steps and ``(tenant, reason)``
skips, and ``fabric.digest()`` after the pass.  A change to
``repro.globalopt`` that keeps these makes the decisions of the code that
recorded them.

The grid: the ``sfp reoptimize`` demo fleet (3 switches, the demo's churn mix
replayed for 5 s as with ``--quick`` and for the default 20 s) x seeds 1/3/7 x
the ``hash`` and ``least-backplane`` partitioners x modes ``greedy``, ``ilp``
and ``auto`` x ``min_benefit`` 0.5 (the default) and 0.0 (balance moves pass
the gate, so migrations execute, probed through the dataplane).
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.controller import ChurnConfig, ChurnEngine, synthesize_churn
from repro.core.spec import SwitchSpec
from repro.core.state import stable_digest
from repro.experiments.config import PAPER_WORKLOAD
from repro.fabric import FabricOrchestrator, FabricTopology, make_partitioner
from repro.globalopt.model import snapshot_fabric
from repro.globalopt.solver import solve_global

DURATIONS = (5.0, 20.0)
PARTITIONERS = ("hash", "least-backplane")
SEEDS = (1, 3, 7)
MODES = ("greedy", "ilp", "auto")
MIN_BENEFITS = (0.5, 0.0)

GRID = [
    (duration, partitioner, seed, mode, min_benefit)
    for duration in DURATIONS
    for partitioner in PARTITIONERS
    for seed in SEEDS
    for mode in MODES
    for min_benefit in MIN_BENEFITS
]


def demo_fleet(duration: float, partitioner: str, seed: int) -> FabricOrchestrator:
    """The fleet ``sfp reoptimize`` fragments before its pass."""
    spec = SwitchSpec(
        stages=4, blocks_per_stage=8, block_bits=6400, rule_bits=64,
        capacity_gbps=40.0,
    )
    topology = FabricTopology.full_mesh(
        3, spec=spec, link_capacity_gbps=100.0, max_recirculations=1
    )
    fabric = FabricOrchestrator(
        topology, num_types=6, partitioner=make_partitioner(partitioner),
        with_dataplane=True,
    )
    config = ChurnConfig(
        duration_s=duration,
        arrival_rate_per_s=12.0,
        mean_lifetime_s=6.0,
        modify_fraction=0.25,
        workload=replace(
            PAPER_WORKLOAD, num_sfcs=0, num_types=6, avg_chain_length=3,
            chain_length_spread=2, rules_min=1, rules_max=4,
            mean_bandwidth_gbps=1.0, max_bandwidth_gbps=4.0,
        ),
    )
    ChurnEngine(fabric).replay(synthesize_churn(config, rng=seed))
    return fabric


def _target(plan) -> tuple:
    return (plan.switches, plan.split, tuple(plan.links))


def decisions(duration, partitioner, seed, mode, min_benefit) -> tuple:
    """``(plans digest, kept, steps, skips, post-pass fabric digest)``."""
    fabric = demo_fleet(duration, partitioner, seed)
    solution = solve_global(snapshot_fabric(fabric), mode=mode)
    report = fabric.reoptimize(mode=mode, min_benefit=min_benefit)
    assert report.ok
    plans = sorted((tid, *_target(plan)) for tid, plan in solution.plans.items())
    return (
        stable_digest(plans),
        solution.kept,
        tuple((s.tenant_id, s.kind, _target(s.target)) for s in report.plan.steps),
        tuple((s.tenant_id, reason) for s, reason in report.plan.skipped),
        fabric.digest(),
    )


#: Recorded from the re-optimizer (see the module docstring).
EXPECTED = {
    (5.0, 'hash', 1, 'greedy', 0.5): (
        '15cf5e3f7a977b68a0fc1471588ea258', (),
        (),
        ((28, 'low-yield'), (44, 'low-yield'), (48, 'low-yield')),
        '6e71755a43372430888ee1b5bc3d38ed',
    ),
    (5.0, 'hash', 1, 'greedy', 0.0): (
        '15cf5e3f7a977b68a0fc1471588ea258', (),
        ((48, 'move', (('sw0',), 0, ())), (44, 'move', (('sw0',), 0, ())), (28, 'move', (('sw0',), 0, ()))),
        (),
        '1d944248fe8129a9cf6aa72d19677441',
    ),
    (5.0, 'hash', 1, 'ilp', 0.5): (
        '673c4ba5e87e046fb7e8ce65f2c3c1ca', (),
        (),
        (),
        '6e71755a43372430888ee1b5bc3d38ed',
    ),
    (5.0, 'hash', 1, 'ilp', 0.0): (
        '673c4ba5e87e046fb7e8ce65f2c3c1ca', (),
        (),
        (),
        '6e71755a43372430888ee1b5bc3d38ed',
    ),
    (5.0, 'hash', 1, 'auto', 0.5): (
        '673c4ba5e87e046fb7e8ce65f2c3c1ca', (),
        (),
        (),
        '6e71755a43372430888ee1b5bc3d38ed',
    ),
    (5.0, 'hash', 1, 'auto', 0.0): (
        '673c4ba5e87e046fb7e8ce65f2c3c1ca', (),
        (),
        (),
        '6e71755a43372430888ee1b5bc3d38ed',
    ),
    (5.0, 'hash', 3, 'greedy', 0.5): (
        'b322d23d03343c697719918488bba476', (),
        (),
        ((42, 'low-yield'), (46, 'low-yield')),
        '87ee9d3aa1e7226f50826e6b7b581a40',
    ),
    (5.0, 'hash', 3, 'greedy', 0.0): (
        'b322d23d03343c697719918488bba476', (),
        ((42, 'move', (('sw1',), 0, ())), (46, 'move', (('sw2',), 0, ()))),
        (),
        'd9a0e02e087371ab22268120ba379a12',
    ),
    (5.0, 'hash', 3, 'ilp', 0.5): (
        'afedc158d77da788c3888374b60b3dc2', (),
        (),
        (),
        '87ee9d3aa1e7226f50826e6b7b581a40',
    ),
    (5.0, 'hash', 3, 'ilp', 0.0): (
        'afedc158d77da788c3888374b60b3dc2', (),
        (),
        (),
        '87ee9d3aa1e7226f50826e6b7b581a40',
    ),
    (5.0, 'hash', 3, 'auto', 0.5): (
        'afedc158d77da788c3888374b60b3dc2', (),
        (),
        (),
        '87ee9d3aa1e7226f50826e6b7b581a40',
    ),
    (5.0, 'hash', 3, 'auto', 0.0): (
        'afedc158d77da788c3888374b60b3dc2', (),
        (),
        (),
        '87ee9d3aa1e7226f50826e6b7b581a40',
    ),
    (5.0, 'hash', 7, 'greedy', 0.5): (
        'c296c51e42246dfc7b83d28ac76037c7', (),
        (),
        ((8, 'low-yield'), (40, 'low-yield'), (45, 'low-yield')),
        'afd599835098a67db0fb39e6caa0d547',
    ),
    (5.0, 'hash', 7, 'greedy', 0.0): (
        'c296c51e42246dfc7b83d28ac76037c7', (),
        ((45, 'move', (('sw0',), 0, ())), (8, 'move', (('sw1',), 0, ()))),
        ((40, 'low-yield'),),
        '5733680e82926ef5ed288d18ddca6a38',
    ),
    (5.0, 'hash', 7, 'ilp', 0.5): (
        '7a7034e0228326dc856b1b725468b1f1', (),
        (),
        (),
        'afd599835098a67db0fb39e6caa0d547',
    ),
    (5.0, 'hash', 7, 'ilp', 0.0): (
        '7a7034e0228326dc856b1b725468b1f1', (),
        (),
        (),
        'afd599835098a67db0fb39e6caa0d547',
    ),
    (5.0, 'hash', 7, 'auto', 0.5): (
        '7a7034e0228326dc856b1b725468b1f1', (),
        (),
        (),
        'afd599835098a67db0fb39e6caa0d547',
    ),
    (5.0, 'hash', 7, 'auto', 0.0): (
        '7a7034e0228326dc856b1b725468b1f1', (),
        (),
        (),
        'afd599835098a67db0fb39e6caa0d547',
    ),
    (5.0, 'least-backplane', 1, 'greedy', 0.5): (
        '515753b9e840ad32f3c08f981a099406', (),
        (),
        ((48, 'low-yield'),),
        'fc98bcf097505f89bbb1167d6ed78bf7',
    ),
    (5.0, 'least-backplane', 1, 'greedy', 0.0): (
        '515753b9e840ad32f3c08f981a099406', (),
        ((48, 'move', (('sw0',), 0, ())),),
        (),
        '879dbe7341153cf55f0a52f381dddac6',
    ),
    (5.0, 'least-backplane', 1, 'ilp', 0.5): (
        '29bbeeb754097f800b3edc1dc29a948d', (),
        (),
        (),
        'fc98bcf097505f89bbb1167d6ed78bf7',
    ),
    (5.0, 'least-backplane', 1, 'ilp', 0.0): (
        '29bbeeb754097f800b3edc1dc29a948d', (),
        (),
        (),
        'fc98bcf097505f89bbb1167d6ed78bf7',
    ),
    (5.0, 'least-backplane', 1, 'auto', 0.5): (
        '29bbeeb754097f800b3edc1dc29a948d', (),
        (),
        (),
        'fc98bcf097505f89bbb1167d6ed78bf7',
    ),
    (5.0, 'least-backplane', 1, 'auto', 0.0): (
        '29bbeeb754097f800b3edc1dc29a948d', (),
        (),
        (),
        'fc98bcf097505f89bbb1167d6ed78bf7',
    ),
    (5.0, 'least-backplane', 3, 'greedy', 0.5): (
        '33d941937d3552a956506e010e051c78', (),
        (),
        (),
        '931b0a9df92d07f7b2fdc0468869eccd',
    ),
    (5.0, 'least-backplane', 3, 'greedy', 0.0): (
        '33d941937d3552a956506e010e051c78', (),
        (),
        (),
        '931b0a9df92d07f7b2fdc0468869eccd',
    ),
    (5.0, 'least-backplane', 3, 'ilp', 0.5): (
        '33d941937d3552a956506e010e051c78', (),
        (),
        (),
        '931b0a9df92d07f7b2fdc0468869eccd',
    ),
    (5.0, 'least-backplane', 3, 'ilp', 0.0): (
        '33d941937d3552a956506e010e051c78', (),
        (),
        (),
        '931b0a9df92d07f7b2fdc0468869eccd',
    ),
    (5.0, 'least-backplane', 3, 'auto', 0.5): (
        '33d941937d3552a956506e010e051c78', (),
        (),
        (),
        '931b0a9df92d07f7b2fdc0468869eccd',
    ),
    (5.0, 'least-backplane', 3, 'auto', 0.0): (
        '33d941937d3552a956506e010e051c78', (),
        (),
        (),
        '931b0a9df92d07f7b2fdc0468869eccd',
    ),
    (5.0, 'least-backplane', 7, 'greedy', 0.5): (
        '4bb46c9e5cc92c2555ef52dc97ebabc2', (),
        (),
        (),
        '6501b0988fe15bb5ea9821403ed92acb',
    ),
    (5.0, 'least-backplane', 7, 'greedy', 0.0): (
        '4bb46c9e5cc92c2555ef52dc97ebabc2', (),
        (),
        (),
        '6501b0988fe15bb5ea9821403ed92acb',
    ),
    (5.0, 'least-backplane', 7, 'ilp', 0.5): (
        '4bb46c9e5cc92c2555ef52dc97ebabc2', (),
        (),
        (),
        '6501b0988fe15bb5ea9821403ed92acb',
    ),
    (5.0, 'least-backplane', 7, 'ilp', 0.0): (
        '4bb46c9e5cc92c2555ef52dc97ebabc2', (),
        (),
        (),
        '6501b0988fe15bb5ea9821403ed92acb',
    ),
    (5.0, 'least-backplane', 7, 'auto', 0.5): (
        '4bb46c9e5cc92c2555ef52dc97ebabc2', (),
        (),
        (),
        '6501b0988fe15bb5ea9821403ed92acb',
    ),
    (5.0, 'least-backplane', 7, 'auto', 0.0): (
        '4bb46c9e5cc92c2555ef52dc97ebabc2', (),
        (),
        (),
        '6501b0988fe15bb5ea9821403ed92acb',
    ),
    (20.0, 'hash', 1, 'greedy', 0.5): (
        'cbb5554fbd6412a19073d66cc953cac0', (),
        (),
        (),
        '87fb09952f6023034b75a7c9dec70d83',
    ),
    (20.0, 'hash', 1, 'greedy', 0.0): (
        'cbb5554fbd6412a19073d66cc953cac0', (),
        (),
        (),
        '87fb09952f6023034b75a7c9dec70d83',
    ),
    (20.0, 'hash', 1, 'ilp', 0.5): (
        'cbb5554fbd6412a19073d66cc953cac0', (),
        (),
        (),
        '87fb09952f6023034b75a7c9dec70d83',
    ),
    (20.0, 'hash', 1, 'ilp', 0.0): (
        'cbb5554fbd6412a19073d66cc953cac0', (),
        (),
        (),
        '87fb09952f6023034b75a7c9dec70d83',
    ),
    (20.0, 'hash', 1, 'auto', 0.5): (
        'cbb5554fbd6412a19073d66cc953cac0', (),
        (),
        (),
        '87fb09952f6023034b75a7c9dec70d83',
    ),
    (20.0, 'hash', 1, 'auto', 0.0): (
        'cbb5554fbd6412a19073d66cc953cac0', (),
        (),
        (),
        '87fb09952f6023034b75a7c9dec70d83',
    ),
    (20.0, 'hash', 3, 'greedy', 0.5): (
        'f89d544da42160fc10b6a8b510f562b7', (),
        (),
        ((53, 'low-yield'), (182, 'low-yield')),
        '7ab7584938a1a2b688594991a3e4b908',
    ),
    (20.0, 'hash', 3, 'greedy', 0.0): (
        'f89d544da42160fc10b6a8b510f562b7', (),
        ((53, 'move', (('sw1',), 0, ())), (182, 'move', (('sw1',), 0, ()))),
        (),
        '8e61995284f71b96f14c36247beb2571',
    ),
    (20.0, 'hash', 3, 'ilp', 0.5): (
        '4e08471a1d0aaa0c59ee1995f03903ce', (),
        (),
        (),
        '7ab7584938a1a2b688594991a3e4b908',
    ),
    (20.0, 'hash', 3, 'ilp', 0.0): (
        '4e08471a1d0aaa0c59ee1995f03903ce', (),
        (),
        (),
        '7ab7584938a1a2b688594991a3e4b908',
    ),
    (20.0, 'hash', 3, 'auto', 0.5): (
        'f89d544da42160fc10b6a8b510f562b7', (),
        (),
        ((53, 'low-yield'), (182, 'low-yield')),
        '7ab7584938a1a2b688594991a3e4b908',
    ),
    (20.0, 'hash', 3, 'auto', 0.0): (
        'f89d544da42160fc10b6a8b510f562b7', (),
        ((53, 'move', (('sw1',), 0, ())), (182, 'move', (('sw1',), 0, ()))),
        (),
        '8e61995284f71b96f14c36247beb2571',
    ),
    (20.0, 'hash', 7, 'greedy', 0.5): (
        '828338da9c774683f85571a74fd118c4', (),
        (),
        ((151, 'low-yield'),),
        '47fbd1cd59af4cd7c809bcad7a127066',
    ),
    (20.0, 'hash', 7, 'greedy', 0.0): (
        '828338da9c774683f85571a74fd118c4', (),
        ((151, 'move', (('sw2',), 0, ())),),
        (),
        '1be75f47f0b7af2cd17ec956c0e229d1',
    ),
    (20.0, 'hash', 7, 'ilp', 0.5): (
        'ccb35e31824cfa386fb7452a5a09c781', (),
        (),
        (),
        '47fbd1cd59af4cd7c809bcad7a127066',
    ),
    (20.0, 'hash', 7, 'ilp', 0.0): (
        'ccb35e31824cfa386fb7452a5a09c781', (),
        (),
        (),
        '47fbd1cd59af4cd7c809bcad7a127066',
    ),
    (20.0, 'hash', 7, 'auto', 0.5): (
        '828338da9c774683f85571a74fd118c4', (),
        (),
        ((151, 'low-yield'),),
        '47fbd1cd59af4cd7c809bcad7a127066',
    ),
    (20.0, 'hash', 7, 'auto', 0.0): (
        '828338da9c774683f85571a74fd118c4', (),
        ((151, 'move', (('sw2',), 0, ())),),
        (),
        '1be75f47f0b7af2cd17ec956c0e229d1',
    ),
    (20.0, 'least-backplane', 1, 'greedy', 0.5): (
        '8ea90bbdf1dbf9cbb415885c045ff85b', (),
        ((161, 'unstitch', (('sw2',), 0, ())), (211, 'unstitch', (('sw2',), 0, ()))),
        ((89, 'low-yield'),),
        'ed833edcdd573243321aa79fc3a0958a',
    ),
    (20.0, 'least-backplane', 1, 'greedy', 0.0): (
        '8ea90bbdf1dbf9cbb415885c045ff85b', (),
        ((161, 'unstitch', (('sw2',), 0, ())), (211, 'unstitch', (('sw2',), 0, ()))),
        ((89, 'low-yield'),),
        'ed833edcdd573243321aa79fc3a0958a',
    ),
    (20.0, 'least-backplane', 1, 'ilp', 0.5): (
        'b4e0d66c6f80426a26d712bd7e32e468', (),
        ((161, 'unstitch', (('sw0',), 0, ())),),
        ((211, 'no-headroom'),),
        'de2c2d1f60afc6f98f0c2558545f619c',
    ),
    (20.0, 'least-backplane', 1, 'ilp', 0.0): (
        'b4e0d66c6f80426a26d712bd7e32e468', (),
        ((161, 'unstitch', (('sw0',), 0, ())),),
        ((211, 'no-headroom'),),
        'de2c2d1f60afc6f98f0c2558545f619c',
    ),
    (20.0, 'least-backplane', 1, 'auto', 0.5): (
        '8ea90bbdf1dbf9cbb415885c045ff85b', (),
        ((161, 'unstitch', (('sw2',), 0, ())), (211, 'unstitch', (('sw2',), 0, ()))),
        ((89, 'low-yield'),),
        'ed833edcdd573243321aa79fc3a0958a',
    ),
    (20.0, 'least-backplane', 1, 'auto', 0.0): (
        '8ea90bbdf1dbf9cbb415885c045ff85b', (),
        ((161, 'unstitch', (('sw2',), 0, ())), (211, 'unstitch', (('sw2',), 0, ()))),
        ((89, 'low-yield'),),
        'ed833edcdd573243321aa79fc3a0958a',
    ),
    (20.0, 'least-backplane', 3, 'greedy', 0.5): (
        '979a8395b921479545c6429aa0970687', (),
        (),
        ((192, 'low-yield'),),
        '73a96829da6d5356cd53df952d989406',
    ),
    (20.0, 'least-backplane', 3, 'greedy', 0.0): (
        '979a8395b921479545c6429aa0970687', (),
        ((192, 'move', (('sw1',), 0, ())),),
        (),
        '8bb768da0b5e1591f05bfd27d8b3399b',
    ),
    (20.0, 'least-backplane', 3, 'ilp', 0.5): (
        '1b0cdae6bf3d2a77b27be4b1309e09fc', (),
        (),
        (),
        '73a96829da6d5356cd53df952d989406',
    ),
    (20.0, 'least-backplane', 3, 'ilp', 0.0): (
        '1b0cdae6bf3d2a77b27be4b1309e09fc', (),
        (),
        (),
        '73a96829da6d5356cd53df952d989406',
    ),
    (20.0, 'least-backplane', 3, 'auto', 0.5): (
        '979a8395b921479545c6429aa0970687', (),
        (),
        ((192, 'low-yield'),),
        '73a96829da6d5356cd53df952d989406',
    ),
    (20.0, 'least-backplane', 3, 'auto', 0.0): (
        '979a8395b921479545c6429aa0970687', (),
        ((192, 'move', (('sw1',), 0, ())),),
        (),
        '8bb768da0b5e1591f05bfd27d8b3399b',
    ),
    (20.0, 'least-backplane', 7, 'greedy', 0.5): (
        'd82334851d60f32d41a2fbc289ebe418', (),
        (),
        (),
        '56a8de677ea86e3d71d87c1926c8f8cf',
    ),
    (20.0, 'least-backplane', 7, 'greedy', 0.0): (
        'd82334851d60f32d41a2fbc289ebe418', (),
        (),
        (),
        '56a8de677ea86e3d71d87c1926c8f8cf',
    ),
    (20.0, 'least-backplane', 7, 'ilp', 0.5): (
        'd82334851d60f32d41a2fbc289ebe418', (),
        (),
        (),
        '56a8de677ea86e3d71d87c1926c8f8cf',
    ),
    (20.0, 'least-backplane', 7, 'ilp', 0.0): (
        'd82334851d60f32d41a2fbc289ebe418', (),
        (),
        (),
        '56a8de677ea86e3d71d87c1926c8f8cf',
    ),
    (20.0, 'least-backplane', 7, 'auto', 0.5): (
        'd82334851d60f32d41a2fbc289ebe418', (),
        (),
        (),
        '56a8de677ea86e3d71d87c1926c8f8cf',
    ),
    (20.0, 'least-backplane', 7, 'auto', 0.0): (
        'd82334851d60f32d41a2fbc289ebe418', (),
        (),
        (),
        '56a8de677ea86e3d71d87c1926c8f8cf',
    ),
}


@pytest.mark.parametrize(
    "case", GRID, ids=["-".join(str(part) for part in case) for case in GRID]
)
def test_decisions_are_pinned(case):
    assert decisions(*case) == EXPECTED[case]
