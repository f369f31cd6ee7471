"""Fabric-wide global re-optimization (snapshot -> solve -> plan -> migrate).

The greedy online walk places each tenant once and never looks back,
so long churn fragments the fleet: tenants stitched across two switches
when the fabric was momentarily full stay stitched forever, and spillover
compounds.  This package closes the loop — :func:`reoptimize_fabric`
freezes the fleet into a compact model (:mod:`~repro.globalopt.model`),
re-solves the tenant->switch assignment fleet-wide
(:mod:`~repro.globalopt.solver`: ILP over the :mod:`repro.lp` seam for
small fleets, deterministic greedy repack at scale, with Sallam-style
multi-hop stitch routing), orders the delta into a headroom-proved
migration plan (:mod:`~repro.globalopt.plan`), and executes it hitlessly
(:mod:`~repro.globalopt.migrate`: make-before-break, per-step bit-identity
audit, ``reopt_step`` WAL journaling with crash-consistent recovery).

Use it through :meth:`FabricOrchestrator.reoptimize`, ``POST
/v1/reoptimize`` on the frontend, or ``sfp reoptimize``.  A pass takes
four inputs: ``mode``, ``min_benefit``, ``max_moves`` and ``execute``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import SolverError
from repro.globalopt.migrate import (
    MigrationReport,
    StepResult,
    apply_recorded_step,
    execute_plan,
    execute_step,
)
from repro.globalopt.model import (
    FabricModel,
    TenantFootprint,
    TenantPlan,
    Usage,
    snapshot_fabric,
)
from repro.globalopt.plan import MigrationPlan, MigrationStep, build_plan
from repro.globalopt.solver import GlobalSolution, solve_global

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.fabric.orchestrator import FabricOrchestrator


@dataclass
class ReoptReport:
    """One full re-optimization pass, end to end."""

    mode: str
    solve_s: float
    tenants: int
    stitched_before: int
    stitched_after: int
    links_before: int
    links_after: int
    moves_planned: int
    moves_skipped_plan: int
    migration: MigrationReport | None = None
    executed: bool = True
    notes: tuple[str, ...] = ()
    invariant_problems: tuple[str, ...] = ()
    wall_s: float = 0.0
    plan: MigrationPlan = field(default_factory=MigrationPlan)

    @property
    def ok(self) -> bool:
        if self.invariant_problems:
            return False
        return self.migration is None or self.migration.ok

    @property
    def stitch_reduction(self) -> int:
        return self.stitched_before - self.stitched_after

    def summary(self) -> dict:
        """JSON-native form (the frontend's response payload), merged with
        the migration report's counters when one ran (its own wall time as
        ``migration_wall_s``: ``wall_s`` is the whole pass)."""
        out = {
            "mode": self.mode,
            "solve_s": self.solve_s,
            "tenants": self.tenants,
            "stitched_before": self.stitched_before,
            "stitched_after": self.stitched_after,
            "stitch_reduction": self.stitch_reduction,
            "links_before": self.links_before,
            "links_after": self.links_after,
            "moves_planned": self.moves_planned,
            "moves_skipped_plan": self.moves_skipped_plan,
            "executed": self.executed,
            "invariant_ok": not self.invariant_problems,
            "wall_s": self.wall_s,
        }
        if self.migration is not None:
            migration = self.migration.summary()
            out["migration_wall_s"] = migration.pop("wall_s")
            out.update(migration)
        return out

    def describe(self) -> str:
        """One human-readable line (the CLI's output)."""
        moved = self.migration.executed if self.migration else 0
        return (
            f"reoptimize[{self.mode}]: {self.tenants} tenants, "
            f"stitched {self.stitched_before} -> {self.stitched_after}, "
            f"{moved}/{self.moves_planned} moves executed "
            f"({self.moves_skipped_plan} gated) in {self.wall_s:.3f}s; "
            f"invariant {'OK' if not self.invariant_problems else 'VIOLATED'}"
        )


def _stitch_stats(fabric: "FabricOrchestrator") -> tuple[int, int]:
    with fabric._dir_lock:
        stitched = sum(1 for r in fabric.tenants.values() if r.stitched)
        links = sum(len(r.links) for r in fabric.tenants.values())
    return stitched, links


def reoptimize_fabric(
    fabric: "FabricOrchestrator",
    mode: str = "auto",
    min_benefit: float = 0.5,
    max_moves: int | None = None,
    execute: bool = True,
) -> ReoptReport:
    """Run one full re-optimization pass against a live fabric.

    ``execute=False`` is the dry run: solve and plan, touch nothing.  An
    executed pass probes every migrated tenant when the fabric has a
    dataplane and checks the fabric bit-identity invariant after every
    step and after the pass.  A non-finite ``min_benefit`` or a
    ``max_moves`` that is not ``None`` or an int >= 0 raises
    :class:`~repro.errors.SolverError` before anything is read.
    """
    if not math.isfinite(min_benefit):
        raise SolverError(
            f"min_benefit must be a finite number, got {min_benefit!r}"
        )
    if max_moves is not None and (
        isinstance(max_moves, bool)
        or not isinstance(max_moves, int)
        or max_moves < 0
    ):
        raise SolverError(
            f"max_moves must be None or an int >= 0, got {max_moves!r}"
        )
    t0 = time.perf_counter()
    metrics = fabric.metrics
    with fabric._fabric_locked():
        model = snapshot_fabric(fabric)
    stitched_before, links_before = _stitch_stats(fabric)
    with metrics.timer("globalopt.solve_s"):
        solution = solve_global(model, mode=mode)
    plan = build_plan(
        model, solution, min_benefit=min_benefit, max_moves=max_moves
    )
    metrics.inc("globalopt.runs")
    metrics.inc("globalopt.moves_planned", plan.moves_planned)
    metrics.inc("globalopt.moves_skipped", plan.moves_skipped)
    migration = None
    if execute and plan.steps:
        migration = execute_plan(fabric, plan)
    stitched_after, links_after = (
        _stitch_stats(fabric) if execute else (stitched_before, links_before)
    )
    problems: tuple[str, ...] = ()
    if execute:
        with fabric._fabric_locked():
            problems = tuple(fabric.check_invariant())
    report = ReoptReport(
        mode=solution.mode,
        solve_s=solution.solve_s,
        tenants=len(model.tenants),
        stitched_before=stitched_before,
        stitched_after=stitched_after,
        links_before=links_before,
        links_after=links_after,
        moves_planned=plan.moves_planned,
        moves_skipped_plan=plan.moves_skipped,
        migration=migration,
        executed=execute,
        notes=solution.notes,
        invariant_problems=problems,
        wall_s=time.perf_counter() - t0,
        plan=plan,
    )
    fabric.recorder.record_state(
        "globalopt.reoptimize",
        mode=report.mode,
        tenants=report.tenants,
        stitched_before=stitched_before,
        stitched_after=stitched_after,
        moves=plan.moves_planned,
        ok=report.ok,
    )
    return report


__all__ = [
    "FabricModel",
    "GlobalSolution",
    "MigrationPlan",
    "MigrationReport",
    "MigrationStep",
    "ReoptReport",
    "StepResult",
    "TenantFootprint",
    "TenantPlan",
    "Usage",
    "apply_recorded_step",
    "build_plan",
    "execute_plan",
    "execute_step",
    "reoptimize_fabric",
    "snapshot_fabric",
    "solve_global",
]
