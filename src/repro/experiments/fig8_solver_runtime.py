"""Fig. 8 — Execution time of SFP-IP vs SFP-Appro. varying the number of SFCs.

8 stages, recirculation budget 2, average chain length 5.  The paper's
finding: the exact IP's runtime grows super-exponentially with L while the
LP-relaxation rounding stays polynomial (≈70 s at 50 SFCs on their machine).

``ilp_time_limit`` caps each IP solve so the sweep terminates on any
hardware; a hit limit is reported in the ``ilp_hit_limit`` column (runtime
then lower-bounds the paper's exact solve).
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np

from repro.core.ilp import solve_ilp
from repro.core.rounding import solve_with_rounding
from repro.experiments.config import PAPER_SWITCH, PAPER_WORKLOAD
from repro.experiments.harness import ExperimentResult, mean_over_trials, run_trials
from repro.traffic.workload import make_instance

L_VALUES = (10, 20, 30, 40, 50)
MAX_RECIRCULATIONS = 2

GRIDS = {
    "smoke": {"l_values": (4, 8), "ilp_time_limit": 20.0},
    "quick": {"l_values": (10, 20, 30), "ilp_time_limit": 120.0},
    "paper": {},
}

PAPER = (
    "SFP-IP runtime grows super-exponentially with L; SFP-Appro. stays "
    "polynomial (~70 s at 50 SFCs on the paper's machine)."
)


def run(
    l_values=L_VALUES,
    trials: int = 1,
    seed: int | None = None,
    ilp_time_limit: float | None = 300.0,
) -> ExperimentResult:
    """Regenerate Fig. 8's solver-runtime comparison."""
    result = ExperimentResult(
        name="fig8",
        description="solver runtime (s) vs number of SFCs: SFP-IP vs SFP-Appro.",
        columns=[
            "num_sfcs",
            "ilp_seconds",
            "appro_seconds",
            "ilp_objective",
            "appro_objective",
            "ilp_hit_limit",
        ],
    )
    for L in l_values:
        config = replace(PAPER_WORKLOAD, num_sfcs=L)

        def trial(rng):
            instance = make_instance(
                config,
                switch=PAPER_SWITCH,
                max_recirculations=MAX_RECIRCULATIONS,
                rng=rng,
            )
            t0 = time.perf_counter()
            ilp = solve_ilp(instance, time_limit=ilp_time_limit)
            ilp_seconds = time.perf_counter() - t0
            t0 = time.perf_counter()
            appro = solve_with_rounding(instance, rng=rng)
            appro_seconds = time.perf_counter() - t0
            hit = (
                1.0
                if ilp_time_limit is not None and ilp_seconds >= ilp_time_limit * 0.98
                else 0.0
            )
            return {
                "ilp_seconds": ilp_seconds,
                "appro_seconds": appro_seconds,
                "ilp_objective": ilp.objective,
                "appro_objective": appro.placement.objective,
                "ilp_hit_limit": hit,
            }

        mean = mean_over_trials(run_trials(trial, trials, seed))
        result.add_row(num_sfcs=L, **mean)
    return result


def check(result: ExperimentResult) -> list[tuple[str, bool]]:
    """Fig. 8's shape claims, as ``(claim, ok)`` pairs."""
    ilp = np.array(result.column("ilp_seconds"))
    appro = np.array(result.column("appro_seconds"))
    hit = np.array(result.column("ilp_hit_limit"))
    obj_ilp = np.array(result.column("ilp_objective"))
    obj_appro = np.array(result.column("appro_objective"))
    checks = [
        ("exact IP slower than Appro at the largest L", ilp[-1] > appro[-1] or hit[-1] > 0),
        (
            "IP objective >= Appro's unless the IP hit its time limit",
            (obj_appro <= obj_ilp + 1e-6).all() or hit.any(),
        ),
        ("Appro objective within 30% of IP", (obj_appro >= 0.7 * obj_ilp - 1e-6).all()),
    ]
    if result.column("num_sfcs")[-1] >= L_VALUES[-1]:
        # Growth rates compare only once L is large enough for
        # branch-and-bound to dominate (the paper's super-exponential
        # regime); on a smaller sweep solver start-up noise swamps them.
        growth = ilp[-1] / max(ilp[0], 1e-3) > appro[-1] / max(appro[0], 1e-3)
        checks.append(("IP runtime grows faster than Appro's", growth or hit.any()))
    return checks
