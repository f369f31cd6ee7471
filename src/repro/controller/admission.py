"""Admission control: cheap necessary-condition checks run *before* the
placement solver.

The controller screens every tenant request against the live
:class:`~repro.core.state.PipelineState` so that obviously infeasible chains
are rejected in O(S) without burning a solver attempt: chains longer than
the unrolled pipeline, NF types outside the provider catalog, aggregate
backplane demand beyond Equation (12)'s capacity, and rule totals beyond the
residual SRAM.  Passing admission does **not** guarantee a placement exists
(the checks are necessary, not sufficient — fragmentation can still defeat
the solver); failing it guarantees one does not.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.spec import SFC
from repro.core.state import PipelineState


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of the admission screen: admitted or a coded rejection
    (``reason`` is mirrored as a ``rejected.<reason>`` counter)."""

    admitted: bool
    reason: str | None = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.admitted


ADMIT = AdmissionDecision(admitted=True)


def check_admission(sfc: SFC, state: PipelineState) -> AdmissionDecision:
    """Screen one SFC request against the live resource state.

    Checks, in order: chain-order feasibility (J <= K), catalog membership
    of every NF type, backplane budget (Eq. 12 with the chain's minimum
    pass count), and residual stage memory (total rules vs. free blocks
    plus the slack in already part-filled blocks of the chain's own types).
    Returns the first failure, or an admitted decision.
    """
    instance = state.instance
    switch = state.switch

    K = instance.virtual_stages
    if sfc.length > K:
        return AdmissionDecision(
            admitted=False,
            reason="chain-too-long",
            detail=f"chain length {sfc.length} > K={K} virtual stages",
        )

    bad = [t for t in sfc.nf_types if not 1 <= t <= instance.num_types]
    if bad:
        return AdmissionDecision(
            admitted=False,
            reason="unknown-nf-type",
            detail=f"type ids {bad} outside catalog [1, {instance.num_types}]",
        )

    # A chain of J NFs needs at least ceil(J / S) passes, each carrying the
    # tenant's full bandwidth across the backplane (Eq. 12 LHS).
    min_passes = -(-sfc.length // switch.stages)
    if not state.backplane_fits(min_passes * sfc.bw_bps):
        residual = switch.capacity_gbps - state.backplane_gbps
        return AdmissionDecision(
            admitted=False,
            reason="backplane-exhausted",
            detail=(
                f"needs >= {min_passes * sfc.bandwidth_gbps:.1f} Gbps "
                f"backplane ({min_passes} passes x "
                f"{sfc.bandwidth_gbps:.1f} Gbps), "
                f"residual {residual:.1f} Gbps"
            ),
        )

    # Optimistic capacity: whole free blocks everywhere, plus the slack left
    # in part-filled blocks already charged to this chain's own NF types
    # (consolidated accounting lets same-type rules share blocks).
    epb = switch.entries_per_block
    capacity = sum(state.free_blocks(s) for s in range(switch.stages)) * epb
    for i in set(t - 1 for t in sfc.nf_types):
        for s in range(switch.stages):
            used = int(state.entries[i, s])
            if used > 0 and used % epb:
                capacity += epb - used % epb
    if sfc.total_rules > capacity:
        return AdmissionDecision(
            admitted=False,
            reason="memory-exhausted",
            detail=(
                f"chain needs {sfc.total_rules} rule entries, at most "
                f"{capacity} available across all stages"
            ),
        )

    return ADMIT
