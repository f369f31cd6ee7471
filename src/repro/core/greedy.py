"""The greedy baseline placer (paper §V-D, Algorithm 2).

SFC candidates are sorted by the paper's Equation (13) metric

    Metric_l = T_l / (J_l * sum_j F_jl)

("high throughput, low resource occupancy first").  Each chain is then placed
NF by NF: every logical NF goes to the *nearest next* virtual stage whose
physical NF of the right type already exists and has room; failing that, a
new physical NF is installed on the nearest next stage with a free block.
If any NF cannot be settled, or the chain's recirculation passes would
overflow the backplane capacity, the whole chain is rolled back
(Try_placement fails) and the algorithm moves on; on success the resource
state is recommitted (Resource_recompute).
"""

from __future__ import annotations

import time

from repro.core.placement import NFAssignment, Placement
from repro.core.spec import SFC, ProblemInstance
from repro.core.state import PipelineState


def sfc_metric(sfc: SFC) -> float:
    """Equation (13): bandwidth per unit of (length-weighted) rule cost."""
    denominator = sfc.length * sfc.total_rules
    if denominator == 0:
        return float("inf")  # a chain with no rules is free to host
    return sfc.bandwidth_gbps / denominator


def order_sfcs(instance: ProblemInstance) -> list[int]:
    """``Order_SFCs()`` — candidate indices, best metric first (ties broken
    by higher bandwidth, then index for determinism)."""
    return sorted(
        range(instance.num_sfcs),
        key=lambda l: (
            -sfc_metric(instance.sfcs[l]),
            -instance.sfcs[l].bandwidth_gbps,
            l,
        ),
    )


def try_place_chain(
    state: PipelineState, sfc: SFC, max_virtual_stages: int
) -> tuple[int, ...] | None:
    """``Try_placement()`` for one chain against the *current* state.

    Returns the virtual-stage assignment, or ``None`` if the chain does not
    fit.  Mutates ``state`` only on success (rollback on failure).
    """
    snap = state.snapshot()
    S = state.switch.stages
    stages: list[int] = []
    prev_k = 0
    for j in range(sfc.length):
        i = sfc.nf_types[j] - 1
        rules = sfc.rules[j]
        chosen = None
        # Lookahead bound: the remaining J-1-j NFs each need a strictly
        # later stage, so this NF may use at most stage K-(J-1-j).  Without
        # it an early NF can grab a late stage and doom the suffix.
        last_usable = max_virtual_stages - (sfc.length - 1 - j)
        # First preference: nearest next stage with this physical NF already
        # installed and enough room; second: nearest next stage where a new
        # physical NF can be installed.  A single forward scan implements
        # both "nearest next" rules of Algorithm 2, preferring existing NFs
        # at the same distance.
        for k in range(prev_k + 1, last_usable + 1):
            s = (k - 1) % S
            if state.physical[i, s] and state.fits(i, s, rules):
                chosen = k
                break
        if chosen is None:
            for k in range(prev_k + 1, last_usable + 1):
                s = (k - 1) % S
                if not state.physical[i, s] and state.fits(i, s, rules):
                    chosen = k
                    break
        if chosen is None:
            state.restore(snap)
            return None
        state.add_logical_nf(i, (chosen - 1) % S, rules)
        stages.append(chosen)
        prev_k = chosen

    charge = -(-stages[-1] // S) * sfc.bw_bps
    if not state.backplane_fits(charge):
        state.restore(snap)
        return None
    state.add_backplane(charge)
    return tuple(stages)


def _ensure_all_types(state: PipelineState) -> None:
    """Install any catalog type missing from the pipeline (constraint 4),
    choosing the stage with the most free blocks.  Best-effort: skipped when
    no stage has room (the verifier will flag it)."""
    for i in range(state.instance.num_types):
        if state.physical[i].any():
            continue
        stages = sorted(
            range(state.switch.stages), key=lambda s: -state.free_blocks(s)
        )
        for s in stages:
            if not state.reserve_physical_block or state.free_blocks(s) >= 1:
                state.install_physical(i, s)
                break


def greedy_place(
    instance: ProblemInstance,
    consolidate: bool = True,
    reserve_physical_block: bool = True,
    require_all_types: bool = True,
    state: PipelineState | None = None,
    skip: set[int] | None = None,
) -> Placement:
    """Run Algorithm 2 over ``instance`` and return the placement.

    ``state``/``skip`` support the runtime-update path (§V-E): pass the
    resource state left behind by surviving SFCs and the indices that are
    already placed (or must not be considered).
    """
    start = time.perf_counter()
    if state is None:
        state = PipelineState(
            instance,
            consolidate=consolidate,
            reserve_physical_block=reserve_physical_block,
        )
    skip = skip or set()
    assignments: dict[int, NFAssignment] = {}
    K = instance.virtual_stages
    for l in order_sfcs(instance):
        if l in skip:
            continue
        stages = try_place_chain(state, instance.sfcs[l], K)
        if stages is not None:
            assignments[l] = NFAssignment(sfc_index=l, stages=stages)
    if require_all_types:
        _ensure_all_types(state)
    placement = state.make_placement(assignments, algorithm="greedy")
    placement.solve_seconds = time.perf_counter() - start
    return placement
