"""The in-place table stacks.

A :class:`~repro.fastpath.kernels.TableStack` is a snapshot over an
append-only row arena: after any sequence of publishes, drops and
compactions it must run a batch exactly like a stack built from scratch
from the same blocks, and like the interpreter; and a snapshot taken
earlier must keep running bit-identically whatever is published after it.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.spec import SwitchSpec
from repro.dataplane.pipeline import SwitchPipeline
from repro.dataplane.table import MatchActionTable, TableEntry
from repro.fastpath.compiler import compile_blocks
from repro.fastpath.kernels import NumpyKernel, TableStack
from repro.rng import make_rng
from tests.dataplane.differential.harness import KEY, TENANTS, random_entry, random_packet

#: Every code path of the kernel: plain, dropping, REC, header writes,
#: the tenant rewrite and the scalar (called) actions.
ACTIONS = (
    ("permit", {}),
    ("drop", {}),
    ("no_op", {"rec": True}),
    ("set_dscp", {"dscp": 5}),
    ("set_dscp", {"dscp": 9, "rec": True}),
    ("set_tenant", {"wire_id": 2}),
    ("count", {"counter": "c"}),
    ("rate_limit", {"burst": 1, "rec": True}),
)


def _rule(rng) -> TableEntry:
    base = random_entry(rng)
    action, params = ACTIONS[int(rng.integers(0, len(ACTIONS)))]
    return TableEntry(match=base.match, action=action, params=params, priority=base.priority)


def _pipeline() -> SwitchPipeline:
    pipeline = SwitchPipeline(spec=SwitchSpec(stages=1, blocks_per_stage=8), max_passes=3)
    for name in "ab":
        pipeline.stage(0).install_table(MatchActionTable(name, key=KEY))
    return pipeline


def _tables(pipeline) -> list:
    return pipeline.stage(0).tables


def _blocks(pipeline, table, tenants) -> dict:
    """``tenant -> {pass: Block}`` as the engine files them (``{}``: gone)."""
    return {
        t: compile_blocks(table, t, pipeline.max_passes, pipeline.actions) for t in tenants
    }


def _run(pipeline, stacks, seed: int):
    """One batch through the kernel, or (``stacks`` is None) the
    interpreter: every packet field, pass counts and counter deltas."""
    rng = make_rng(seed)
    packets = [random_packet(rng) for _ in range(32)]
    for p in packets:
        p.pass_id = 1
    before = [(t.hits, t.misses) for t in _tables(pipeline)]
    overflows = pipeline.recirculation_overflows
    if stacks is None:
        passes = [r.passes for r in pipeline.process_batch_interpreted(packets)]
    else:
        passes = NumpyKernel().run(stacks, packets, pipeline)
    fields = [
        (p.tenant_id, p.src_ip, p.dst_ip, p.src_port, p.dst_port, p.protocol, p.dscp,
         p.pass_id, p.recirculate, p.dropped, p.egress_port, p.scratch)
        for p in packets
    ]
    counters = [
        (t.hits - h, t.misses - m) for t, (h, m) in zip(_tables(pipeline), before)
    ]
    return fields, passes, counters, pipeline.recirculation_overflows - overflows


def _fresh(pipeline, model) -> tuple:
    return tuple(
        TableStack(table, {t: b for t, b in blocks.items() if b}, pipeline.actions)
        for table, blocks in zip(_tables(pipeline), model)
    )


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_published_stacks_run_like_fresh_ones_and_the_interpreter(seed):
    """Random inserts and deletes, each republishing only the tenants whose
    partition it touched (all of them for a shared rule), and a tenant's
    whole partition deleted now and then (its blocks drop out); batches in
    between, against a from-scratch stack of the same blocks and against
    the interpreter."""
    rng = make_rng(seed)
    pipeline = _pipeline()
    tables = _tables(pipeline)
    for table in tables:
        table.insert_many([_rule(rng) for _ in range(int(rng.integers(0, 12)))])
    model = [_blocks(pipeline, table, TENANTS) for table in tables]
    stacks = _fresh(pipeline, model)
    for step in range(24):
        ti = int(rng.integers(0, len(tables)))
        table = tables[ti]
        op = rng.random()
        if op < 0.45:
            entry = _rule(rng)
            table.insert(entry)
            touched = {entry.match.get("tenant_id")}
        elif op < 0.8 and table.num_entries:
            entry = table.entries[int(rng.integers(0, table.num_entries))]
            table.delete(entry)
            touched = {entry.match.get("tenant_id")}
        else:
            tenant = int(rng.choice(TENANTS))
            for _order, entry in table.partition(tenant):
                table.delete(entry)
            touched = {tenant}
        changes = _blocks(pipeline, table, TENANTS if None in touched else touched)
        model[ti].update(changes)
        stacks = stacks[:ti] + (stacks[ti].publish(changes),) + stacks[ti + 1:]
        if step % 3 == 2:
            got = _run(pipeline, stacks, seed=step)
            assert got == _run(pipeline, _fresh(pipeline, model), seed=step)
            assert got == _run(pipeline, None, seed=step)


def test_an_old_snapshot_is_untouched_by_later_publishes_and_compaction():
    rng = make_rng(11)
    pipeline = _pipeline()
    tables = _tables(pipeline)
    for table in tables:
        for tenant in TENANTS:
            table.insert_many([
                TableEntry(match={**_rule(rng).match, "tenant_id": tenant},
                           action=action, params=params, priority=p)
                for p, (action, params) in enumerate(ACTIONS)
            ])
    old = _fresh(pipeline, [_blocks(pipeline, t, TENANTS) for t in tables])
    rows = [s._arena.rows for s in old]
    arrays = [
        (s.preds[:n].copy(), s.wen[:n].copy(), s.wval[:n].copy(), s.scalar[:n].copy(),
         list(s.fns), dict(s.index))
        for s, n in zip(old, rows)
    ]
    expect = _run(pipeline, old, seed=3)
    stacks = old
    for round_ in range(6):  # rewrite every tenant: the dead rows win
        for ti, table in enumerate(tables):
            tenant = TENANTS[round_ % len(TENANTS)]
            table.insert(TableEntry(match={"tenant_id": tenant}, action="permit",
                                    priority=-round_))
            changes = _blocks(pipeline, table, [tenant])
            stacks = stacks[:ti] + (stacks[ti].publish(changes),) + stacks[ti + 1:]
    assert all(s._arena is not o._arena for s, o in zip(stacks, old))  # compacted
    assert _run(pipeline, old, seed=3) == expect
    for s, n, (preds, wen, wval, scalar, fns, index) in zip(old, rows, arrays):
        assert (s.preds[:n] == preds).all() and (s.wen[:n] == wen).all()
        assert (s.wval[:n] == wval).all() and (s.scalar[:n] == scalar).all()
        assert s.fns[: len(fns)] == fns and s.index == index
    # ... and the newest snapshot is what a fresh build of today's blocks is.
    model = [_blocks(pipeline, t, TENANTS) for t in tables]
    assert _run(pipeline, stacks, seed=4) == _run(pipeline, _fresh(pipeline, model), seed=4)
