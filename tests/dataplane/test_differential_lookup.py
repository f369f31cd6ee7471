"""Differential tests: the indexed lookup engine vs the linear-scan oracle.

Hundreds of seeded random cases (entries, packets, interleaved mutations,
and batched writes with rollback) assert the fast path is observationally
identical to the reference semantics — same winning entry (by identity),
same action and params, same hit/miss counters — per the acceptance bar of
>= 500 generated cases with zero divergence.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataplane.runtime_api import OpType, WriteOp
from repro.dataplane.table import TableEntry
from repro.rng import DEFAULT_SEED, make_rng

from tests.dataplane.differential.harness import (
    TwinTables,
    random_entry,
    random_packet,
)

#: Enough seeded cases that the suite comfortably clears 500 comparisons.
NUM_CASES = 40


def test_differential_bulk_and_interleaved_mutations():
    """>= 500 random lookups across insert / delete / per-tenant teardown /
    rolled-back batch sequences, all agreeing between the indexed and
    reference engines."""
    from tests.dataplane.differential.harness import run_random_case

    compared = 0
    for case in range(NUM_CASES):
        compared += run_random_case(DEFAULT_SEED + case)
    assert compared >= 500, f"only {compared} differential comparisons ran"


def test_differential_empty_and_tiny_tables():
    """Degenerate sizes: empty table (all misses) and single-entry table."""
    rng = make_rng(DEFAULT_SEED)
    twins = TwinTables()
    twins.check_many(rng, 25)  # empty: every lookup must be a miss on both
    twins.insert(random_entry(rng))
    twins.check_many(rng, 25)
    assert twins.fast.misses == twins.oracle.misses >= 25


def test_differential_many_tenants_all_range_rules():
    """A virtualized firewall's shape: 40 tenants x 2 passes, every rule
    carrying a port range (overlapping, mixed priorities) next to the
    exact/ternary/LPM fields.  The index buckets them by ``(tenant, pass,
    ...)`` and checks only the ranges inside; winners stay identical
    through per-tenant teardown and a rolled-back batch."""
    rng = make_rng(DEFAULT_SEED + 77)
    tenants = range(100, 140)
    twins = TwinTables()
    for tenant in tenants:
        for _ in range(12):
            lo = int(rng.integers(0, 1536))
            match = {
                "tenant_id": tenant,
                "pass_id": int(rng.integers(1, 3)),
                "dst_port": (lo, lo + int(rng.integers(0, 512))),
            }
            if rng.random() < 0.5:
                match["protocol"] = int(rng.choice((6, 17)))
            if rng.random() < 0.3:
                match["dst_ip"] = (0x0A000000, int(rng.choice((8, 16))))
            twins.insert(TableEntry(
                match=match, action="permit", params={},
                priority=int(rng.integers(0, 3)),
            ))

    def check(count: int) -> None:
        for _ in range(count):
            packet = random_packet(rng)
            packet.tenant_id = int(rng.integers(98, 142))
            twins.check_lookup(packet)

    check(400)
    assert twins.fast.hits > 100, "the ranges never matched"
    for tenant in (100, 119, 139):
        assert twins.teardown(tenant) == 12
    twins.failed_batch_roundtrip(rng)
    check(200)


def test_differential_runtime_batches_with_rollback():
    """Random INSERT/DELETE/MODIFY batches — roughly a third poisoned so
    they roll back — leave both engines in identical states throughout."""
    rng = make_rng(DEFAULT_SEED + 1000)
    twins = TwinTables()
    compared = 0
    failed_batches = 0
    for _round in range(30):
        # The oracle's entry list is ground truth for what survived.
        live = twins.oracle.entries
        ops: list[WriteOp] = []
        for _ in range(int(rng.integers(1, 6))):
            roll = rng.random()
            if live and roll < 0.3:
                victim = live[int(rng.integers(0, len(live)))]
                ops.append(WriteOp(OpType.DELETE, "t", victim))
                live = [e for e in live if e is not victim]
            elif live and roll < 0.5:
                victim = live[int(rng.integers(0, len(live)))]
                ops.append(
                    WriteOp(OpType.MODIFY, "t", victim, replacement=random_entry(rng))
                )
                live = [e for e in live if e is not victim]
            else:
                ops.append(WriteOp(OpType.INSERT, "t", random_entry(rng)))
        if rng.random() < 0.35:
            # Poison: deleting a never-installed entry fails the whole batch.
            ops.append(WriteOp(OpType.DELETE, "t", random_entry(rng)))
        result = twins.write(ops)
        if not result.ok:
            failed_batches += 1
        compared += twins.check_many(rng, 10)
    assert compared >= 300
    assert failed_batches > 0, "no rollback was ever exercised"


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_differential_hypothesis_fuzzed_seeds(seed):
    """Hypothesis drives the case seed so failures shrink to a small one."""
    from tests.dataplane.differential.harness import run_random_case

    assert run_random_case(seed, num_entries=12, num_packets=8) > 0
