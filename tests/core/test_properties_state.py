"""Property-based tests for PipelineState snapshot()/restore() round-trips.

The controller's try-then-commit pattern (and the fabric's read-only
``can_host`` probes) lean on one guarantee: whatever interleaving of
``add_backplane`` / ``release_backplane`` / ``add_logical_nf`` /
``remove_logical_nf`` happens after a snapshot, ``restore`` brings the state
back **bit-identically** — arrays, cached block charges, and the backplane
integer all exact, with no aliasing between the snapshot and the live state.

The second half pins the order-independence that makes "incremental ==
from scratch" true by construction: any permutation of a multiset of
add/release ops ends on the same integers and the same ``digest()`` as
``PipelineState.from_placement`` (and, for links, as a plain sum).
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.placement import NFAssignment
from repro.core.spec import SFC, ProblemInstance, SwitchSpec
from repro.core.state import LinkState, PipelineState
from repro.units import to_bps


@st.composite
def instances(draw):
    num_types = draw(st.integers(2, 4))
    switch = SwitchSpec(
        stages=draw(st.integers(2, 4)),
        blocks_per_stage=draw(st.integers(2, 6)),
        block_bits=6400,
        rule_bits=64,
        capacity_gbps=draw(st.sampled_from([50.0, 100.0, 200.0])),
    )
    return ProblemInstance(
        switch=switch, sfcs=(), num_types=num_types,
        max_recirculations=draw(st.integers(0, 2)),
    )


@st.composite
def op_scripts(draw):
    """A seeded interleaving of state mutations (executed with guards, so
    every drawn script is valid on every instance)."""
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["add_nf", "remove_nf", "add_bp", "release_bp"]),
                st.integers(0, 10_000),
            ),
            min_size=1,
            max_size=30,
        )
    )
    return ops


def apply_script(state: PipelineState, instance: ProblemInstance, ops, placed):
    """Execute a script, skipping steps the current state cannot take (the
    guards keep scripts instance-agnostic without filtering examples)."""
    for kind, raw in ops:
        if kind == "add_nf":
            i = raw % instance.num_types
            s = (raw // 7) % instance.switch.stages
            rules = 1 + raw % 130
            if state.fits(i, s, rules):
                state.add_logical_nf(i, s, rules)
                placed.append((i, s, rules))
        elif kind == "remove_nf":
            if placed:
                i, s, rules = placed.pop(raw % len(placed))
                state.remove_logical_nf(i, s, rules)
        elif kind == "add_bp":
            bps = to_bps(0.1 + (raw % 400) / 10.0)
            if state.backplane_fits(bps):
                state.add_backplane(bps)
        else:
            # An over-release raises (it is a double release, not dust),
            # so the script releases at most what is committed.
            state.release_backplane(
                min(to_bps((raw % 400) / 10.0), state.backplane_bps)
            )


def capture(state: PipelineState, instance: ProblemInstance):
    return (
        state.physical.copy(),
        state.entries.copy(),
        state.nf_blocks.copy(),
        [state.blocks_at_stage(s) for s in range(instance.switch.stages)],
        [state.free_blocks(s) for s in range(instance.switch.stages)],
        state.backplane_bps,
    )


def assert_matches(state: PipelineState, instance: ProblemInstance, cap):
    physical, entries, nf_blocks, stage_blocks, free, backplane = cap
    assert np.array_equal(state.physical, physical)
    assert np.array_equal(state.entries, entries)
    assert np.array_equal(state.nf_blocks, nf_blocks)
    for s in range(instance.switch.stages):
        assert state.blocks_at_stage(s) == stage_blocks[s]
        assert state.free_blocks(s) == free[s]
    assert state.backplane_bps == backplane


COMMON = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@given(instance=instances(), prefix=op_scripts(), suffix=op_scripts())
@settings(max_examples=200, **COMMON)
def test_snapshot_restore_roundtrip_under_interleaved_churn(
    instance, prefix, suffix
):
    state = PipelineState(instance)
    placed = []
    apply_script(state, instance, prefix, placed)

    before = capture(state, instance)
    snap = state.snapshot()
    apply_script(state, instance, suffix, list(placed))
    state.restore(snap)
    assert_matches(state, instance, before)

    # The snapshot holds copies, not views: mutating the restored state
    # does not corrupt it, so restoring twice is idempotent.
    apply_script(state, instance, suffix, list(placed))
    state.restore(snap)
    assert_matches(state, instance, before)


@given(instance=instances(), scripts=st.lists(op_scripts(), min_size=2, max_size=4))
@settings(max_examples=50, **COMMON)
def test_nested_snapshots_unwind_in_lifo_order(instance, scripts):
    state = PipelineState(instance)
    placed = []
    stack = []
    for script in scripts:
        stack.append((state.snapshot(), capture(state, instance)))
        apply_script(state, instance, script, placed)
    for snap, cap in reversed(stack):
        state.restore(snap)
        assert_matches(state, instance, cap)


@given(instance=instances(), script=op_scripts())
@settings(max_examples=100, **COMMON)
def test_interleaved_churn_never_goes_negative(instance, script):
    state = PipelineState(instance)
    apply_script(state, instance, script, [])
    assert (state.entries >= 0).all()
    assert (state.nf_blocks >= 0).all()
    assert state.backplane_bps >= 0
    for s in range(instance.switch.stages):
        assert 0 <= state.blocks_at_stage(s) <= instance.switch.blocks_per_stage


# ----------------------------------------------------------------------
# Order independence: incremental == from scratch, in any op order
# ----------------------------------------------------------------------
ROOMY = SwitchSpec(
    stages=4, blocks_per_stage=64, block_bits=6400, rule_bits=64,
    capacity_gbps=10_000.0,
)


@st.composite
def populations(draw):
    """Chains with awkward float demands and fixed (valid) stages on a
    switch roomy enough that no add order can hit a capacity wall, each
    flagged survivor (stays) or transient (added, then released)."""
    count = draw(st.integers(2, 8))
    chains = []
    for t in range(count):
        length = draw(st.integers(1, 4))
        first = draw(st.integers(1, 5))
        chains.append(
            (
                SFC(
                    name=f"c{t}",
                    nf_types=tuple(draw(st.integers(1, 3)) for _ in range(length)),
                    rules=tuple(draw(st.integers(1, 150)) for _ in range(length)),
                    bandwidth_gbps=draw(
                        st.floats(1e-3, 40.0, allow_nan=False, allow_infinity=False)
                    ),
                    tenant_id=t,
                ),
                tuple(range(first, first + length)),
                draw(st.booleans()),
            )
        )
    return chains


def run_ops(instance, chains, order):
    """Apply ``("add" | "release", chain index)`` ops in ``order``."""
    S = instance.switch.stages
    state = PipelineState(instance)
    for kind, idx in order:
        sfc, stages, _survives = chains[idx]
        charge = -(-stages[-1] // S) * sfc.bw_bps
        for j, k in enumerate(stages):
            args = (sfc.nf_types[j] - 1, (k - 1) % S, sfc.rules[j])
            if kind == "add":
                state.add_logical_nf(*args)
            else:
                state.remove_logical_nf(*args)
        if kind == "add":
            state.add_backplane(charge)
        else:
            state.release_backplane(charge)
    return state


def shuffled_ops(chains, rng):
    """A random interleaving in which every transient's release follows
    its add (a release before its add would be an over-release)."""
    ops = [("add", i) for i in range(len(chains))]
    rng.shuffle(ops)
    for i, (_sfc, _stages, survives) in enumerate(chains):
        if not survives:
            after = ops.index(("add", i)) + 1
            ops.insert(rng.randint(after, len(ops)), ("release", i))
    return ops


@given(chains=populations(), rng=st.randoms(use_true_random=False))
@settings(max_examples=150, **COMMON)
def test_any_op_order_lands_on_from_placement(chains, rng):
    survivors = [c for c in chains if c[2]]
    instance = ProblemInstance(
        switch=ROOMY, sfcs=tuple(sfc for sfc, _k, _s in survivors),
        num_types=3, max_recirculations=1,
    )
    first = run_ops(instance, chains, shuffled_ops(chains, rng))
    second = run_ops(instance, chains, shuffled_ops(chains, rng))
    reference = PipelineState.from_placement(
        first.make_placement(
            {
                idx: NFAssignment(sfc_index=idx, stages=stages)
                for idx, (_sfc, stages, _s) in enumerate(survivors)
            },
            algorithm="reference",
        )
    )
    assert first.backplane_bps == second.backplane_bps == reference.backplane_bps
    assert first.digest() == second.digest() == reference.digest()


@given(
    loads=st.lists(
        st.tuples(
            st.floats(1e-3, 4.0, allow_nan=False, allow_infinity=False),
            st.booleans(),
        ),
        min_size=1, max_size=12,
    ),
    rng=st.randoms(use_true_random=False),
)
@settings(max_examples=150, **COMMON)
def test_link_load_is_order_independent(loads, rng):
    """Any interleaving of adds, with some loads released again, ends on
    the plain integer sum of what stays."""
    ends = []
    for _ in range(2):
        link = LinkState(1_000.0)
        ops = [("add", i) for i in range(len(loads))]
        rng.shuffle(ops)
        for i, (_gbps, stays) in enumerate(loads):
            if not stays:
                after = ops.index(("add", i)) + 1
                ops.insert(rng.randint(after, len(ops)), ("release", i))
        for kind, i in ops:
            bps = to_bps(loads[i][0])
            link.add_load(bps) if kind == "add" else link.release_load(bps)
        ends.append(link.load_bps)
    expected = sum(to_bps(gbps) for gbps, stays in loads if stays)
    assert ends == [expected, expected]
