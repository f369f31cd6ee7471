"""Runtime SFC update engine (paper §V-E).

Tenants arrive and leave at runtime.  The updater keeps the live placement's
resource state, releases resources when SFCs depart, and places newly arrived
candidates into the *residual* resources while never disturbing survivors
("maintain the SFCs who do not leave in previous placement").  Because the
incremental result can drift from the global optimum, the updater can compare
against a freshly solved reference placement and trigger a full
reconfiguration once the relative objective gap exceeds a threshold (the
paper notes this costs extensive rule changes or a reboot, so it is opt-in).

SFC *modification* is modeled as departure + arrival, exactly as the paper
prescribes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.core.greedy import order_sfcs, try_place_chain
from repro.core.placement import NFAssignment, Placement
from repro.core.spec import SFC, ProblemInstance
from repro.core.state import PipelineState
from repro.errors import PlacementError


def rule_churn_by_stage(
    sfc: SFC, stages: Iterable[int], num_physical_stages: int
) -> dict[int, int]:
    """Rule entries a chain assignment installs (or removes), per *physical*
    stage — the shared accounting path used by :class:`UpdateResult`, the
    fig. 11 experiment, and the controller's churn bookkeeping, so all three
    report rule churn identically."""
    churn: dict[int, int] = {}
    for j, k in enumerate(stages):
        s = (k - 1) % num_physical_stages
        churn[s] = churn.get(s, 0) + sfc.rules[j]
    return churn


def merge_churn(into: dict[int, int], other: dict[int, int]) -> dict[int, int]:
    """Accumulate one per-stage churn dict into another (in place)."""
    for s, count in other.items():
        into[s] = into.get(s, 0) + count
    return into


@dataclass
class UpdateResult:
    """Outcome of one update round."""

    placement: Placement
    removed: list[int] = field(default_factory=list)
    added: list[int] = field(default_factory=list)
    #: True when the drift threshold forced a full re-place.
    reconfigured: bool = False
    #: Objective of the reference (fresh global) solve, when one was run.
    reference_objective: float | None = None
    #: Rule entries installed this round, per physical stage.  Includes the
    #: full reinstall when the round ended in a reconfiguration.
    rules_added_by_stage: dict[int, int] = field(default_factory=dict)
    #: Rule entries deleted this round, per physical stage.  Departures via
    #: :meth:`RuntimeUpdater.remove` since the previous round are folded in.
    rules_deleted_by_stage: dict[int, int] = field(default_factory=dict)

    @property
    def rules_added(self) -> int:
        """Total rule entries installed this round."""
        return sum(self.rules_added_by_stage.values())

    @property
    def rules_deleted(self) -> int:
        """Total rule entries deleted this round."""
        return sum(self.rules_deleted_by_stage.values())


class RuntimeUpdater:
    """Owns a live placement and applies departures/arrivals incrementally."""

    def __init__(
        self,
        placement: Placement,
        reserve_physical_block: bool = True,
        reconfigure_threshold: float | None = None,
        reference_solver: Callable[[ProblemInstance], Placement] | None = None,
    ) -> None:
        self.instance = placement.instance
        self.consolidate = placement.consolidate
        self.reserve_physical_block = reserve_physical_block
        self.reconfigure_threshold = reconfigure_threshold
        self.reference_solver = reference_solver
        self.assignments: dict[int, NFAssignment] = dict(placement.assignments)
        self.state = PipelineState.from_placement(
            placement, reserve_physical_block=reserve_physical_block
        )
        #: Per-stage deletions accumulated since the last UpdateResult.
        self._pending_deleted: dict[int, int] = {}

    # ------------------------------------------------------------------
    @property
    def placement(self) -> Placement:
        """The current live placement."""
        return self.state.make_placement(self.assignments, algorithm="update")

    # ------------------------------------------------------------------
    def remove(self, indices: Iterable[int]) -> list[int]:
        """Tenant departure: delete the chains' rules and release their
        memory and backplane bandwidth.  Physical NFs stay installed (the
        data plane's physical pipeline is static).  Returns the indices
        actually removed, in deterministic (sorted) order; duplicates in
        ``indices`` are collapsed.  The deleted rule entries are accumulated
        into the next round's :attr:`UpdateResult.rules_deleted_by_stage`."""
        removed = []
        S = self.instance.switch.stages
        for l in sorted(set(indices)):
            asg = self.assignments.pop(l, None)
            if asg is None:
                continue
            sfc = self.instance.sfcs[l]
            for j, k in enumerate(asg.stages):
                self.state.remove_logical_nf(
                    sfc.nf_types[j] - 1, (k - 1) % S, sfc.rules[j]
                )
            self.state.release_backplane(asg.passes(S) * sfc.bw_bps)
            merge_churn(self._pending_deleted, rule_churn_by_stage(sfc, asg.stages, S))
            removed.append(l)
        return removed

    # ------------------------------------------------------------------
    def admit(self, candidates: Iterable[int] | None = None) -> UpdateResult:
        """Tenant arrival: place not-yet-placed candidates into residual
        resources (best Equation-13 metric first), then optionally check the
        drift threshold and fall back to a full reconfiguration.
        """
        pool = set(candidates) if candidates is not None else set(range(self.instance.num_sfcs))
        pool -= set(self.assignments)
        added: list[int] = []
        K = self.instance.virtual_stages
        S = self.instance.switch.stages
        added_churn: dict[int, int] = {}
        for l in order_sfcs(self.instance):
            if l not in pool:
                continue
            stages = try_place_chain(self.state, self.instance.sfcs[l], K)
            if stages is not None:
                self.assignments[l] = NFAssignment(sfc_index=l, stages=stages)
                added.append(l)
                merge_churn(
                    added_churn, rule_churn_by_stage(self.instance.sfcs[l], stages, S)
                )

        deleted_churn, self._pending_deleted = self._pending_deleted, {}
        result = UpdateResult(
            placement=self.placement,
            added=added,
            rules_added_by_stage=added_churn,
            rules_deleted_by_stage=deleted_churn,
        )
        if self.reconfigure_threshold is not None:
            if self.reference_solver is None:
                raise PlacementError(
                    "reconfigure_threshold set but no reference_solver given"
                )
            reference = self.reference_solver(self.instance)
            result.reference_objective = reference.objective
            current = result.placement.objective
            if reference.objective > 0 and (
                1.0 - current / reference.objective
            ) > self.reconfigure_threshold:
                # Full re-place: extensive rule churn, possibly a reboot.
                # Everything live (including this round's incremental adds)
                # is torn down and the reference placement reinstalled, and
                # the churn accounting says so.
                for l, asg in self.assignments.items():
                    merge_churn(
                        deleted_churn,
                        rule_churn_by_stage(self.instance.sfcs[l], asg.stages, S),
                    )
                for l, asg in reference.assignments.items():
                    merge_churn(
                        added_churn,
                        rule_churn_by_stage(self.instance.sfcs[l], asg.stages, S),
                    )
                self.assignments = dict(reference.assignments)
                self.state = PipelineState.from_placement(
                    reference, reserve_physical_block=self.reserve_physical_block
                )
                result = UpdateResult(
                    placement=self.placement,
                    added=added,
                    reconfigured=True,
                    reference_objective=reference.objective,
                    rules_added_by_stage=added_churn,
                    rules_deleted_by_stage=deleted_churn,
                )
        return result

    # ------------------------------------------------------------------
    def modify(self, index: int, new_sfc_index: int) -> UpdateResult:
        """Adjust a tenant's chain: modeled as departure of ``index`` then
        arrival of ``new_sfc_index`` (both are indices into the instance's
        candidate list)."""
        removed = self.remove([index])
        result = self.admit([new_sfc_index])
        result.removed = removed
        return result
