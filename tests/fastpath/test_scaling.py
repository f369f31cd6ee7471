"""Scaling guards for the fast path, by count and not by clock: what one
tenant's write and one batch cost must not depend on how many other
tenants are resident — verdicts touched, compiles, kernel runs and rows
written into the table stacks.  (One more count — entries
``compile_chain`` reads for one tenant — is ``test_compiler.test_compile_
reads_only_the_tenants_partitions``.)"""

from __future__ import annotations

from repro.fastpath import FastPathEngine
from tests.dataplane.differential.fleet import Fleet, make_batch


class _CountingPlans(dict):
    """``engine._plans`` that counts point lookups and refuses a walk."""

    touched = 0

    def pop(self, *args):
        self.touched += 1
        return super().pop(*args)

    def get(self, *args):
        self.touched += 1
        return super().get(*args)

    def _walked(self, *args):
        raise AssertionError("a write walked every cached verdict")

    __iter__ = keys = values = items = _walked


def _one_write(tenants: int) -> tuple[int, int, int]:
    """With ``tenants`` resident and warm: ``(verdicts touched by the
    notifications of one tenant's evict + admit, compiles at the next
    batch, kernel runs of that batch)``."""
    fleet = Fleet(tenants, fastpath=True, filler=2)
    engine = fleet.engine
    fleet.pipeline.process_batch(make_batch(fleet.tenant_ids, 1, seed=1))
    assert engine.cached_plans == tenants
    counting = engine._plans = _CountingPlans(engine._plans)
    fleet.rewrite(3)
    touched = counting.touched
    engine._plans = dict(dict.items(counting))
    compiles = engine.stats["compiles"]
    runs = []
    real_run = engine.kernel.run
    engine.kernel.run = lambda *args: runs.append(len(args[1])) or real_run(*args)
    fleet.pipeline.process_batch(make_batch(fleet.tenant_ids, 1, seed=2))
    return touched, engine.stats["compiles"] - compiles, len(runs)


def test_one_tenants_write_costs_the_same_with_8_and_64_resident():
    few, many = _one_write(8), _one_write(64)
    assert few == many
    touched, compiles, runs = few
    assert touched > 0 and compiles == 1 and runs == 1


def stack_rows_per_write(tenants: int) -> int:
    """With ``tenants`` resident and warm: rows written into the table
    stacks by publishing one tenant's evict + admit at the next batch."""
    fleet = Fleet(tenants, fastpath=True, filler=2)
    engine = fleet.engine
    fleet.pipeline.process_batch(make_batch(fleet.tenant_ids, 1, seed=1))
    before = sum(stack.written for stack in engine._stacks)
    fleet.rewrite(3)
    fleet.pipeline.process_batch(make_batch(fleet.tenant_ids, 1, seed=2))
    return sum(stack.written for stack in engine._stacks) - before


def test_a_write_publishes_the_same_rows_with_8_and_64_resident():
    few, many = stack_rows_per_write(8), stack_rows_per_write(64)
    assert few == many > 0


def test_no_dead_blocks_after_200_evict_admit_cycles(tenants=8):
    """Wire IDs are never reused, so every cycle files blocks under a new
    ID: what the engine holds afterwards must be exactly what a fresh
    engine compiles for the live tenants."""
    fleet = Fleet(tenants, fastpath=True, filler=2)
    engine = fleet.engine
    for cycle in range(200):
        fleet.rewrite(fleet.tenant_ids[cycle % tenants])
        if cycle % 3 == 0:
            fleet.pipeline.process_batch(make_batch(fleet.tenant_ids, 1, seed=cycle))
    fleet.pipeline.process_batch(make_batch(fleet.tenant_ids, 1, seed=0))
    fresh = FastPathEngine(fleet.pipeline)
    for tenant_id in fleet.tenant_ids:
        fresh.plan_for(tenant_id)
    assert engine.cached_plans == fresh.cached_plans == tenants
    assert engine.cached_blocks == fresh.cached_blocks
    assert [sorted(per) for per in engine._blocks] == [
        sorted(per) for per in fresh._blocks
    ]
