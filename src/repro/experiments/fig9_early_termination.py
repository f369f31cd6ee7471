"""Fig. 9 — Early-terminating the IP solver under runtime limits.

25 SFCs.  The solver is given wall-clock limits (the paper uses 5..60 s);
at the tightest limit no incumbent exists yet ("performance is 0"), a little
more time yields a near-optimal incumbent, and by ~30 s the objective reaches
the optimum — making early termination a viable alternative to LP rounding.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.core.ilp import solve_ilp
from repro.experiments.config import PAPER_SWITCH, PAPER_WORKLOAD
from repro.experiments.harness import ExperimentResult, mean_over_trials, run_trials
from repro.traffic.workload import make_instance

TIME_LIMITS = (5.0, 10.0, 20.0, 30.0, 60.0)
NUM_SFCS = 25
MAX_RECIRCULATIONS = 2

GRIDS = {
    "smoke": {"time_limits": (0.05, 5.0), "num_sfcs": 8},
    "quick": {"time_limits": (0.05, 2.0, 30.0), "num_sfcs": 12},
    "paper": {},
}

PAPER = (
    "Early-terminated IP: nothing at the 5 s limit, near-optimal by 10 s, "
    "optimal by 30 s."
)


def run(
    time_limits=TIME_LIMITS,
    num_sfcs: int = NUM_SFCS,
    trials: int = 1,
    seed: int | None = None,
) -> ExperimentResult:
    """Regenerate Fig. 9's early-termination staircase."""
    config = replace(PAPER_WORKLOAD, num_sfcs=num_sfcs)
    result = ExperimentResult(
        name="fig9",
        description="IP incumbent quality vs runtime limit (early termination)",
        columns=[
            "time_limit_s",
            "throughput_gbps",
            "block_utilization",
            "entry_utilization",
            "placed",
        ],
    )
    for limit in time_limits:
        def trial(rng):
            instance = make_instance(
                config,
                switch=PAPER_SWITCH,
                max_recirculations=MAX_RECIRCULATIONS,
                rng=rng,
            )
            placement = solve_ilp(instance, time_limit=limit)
            return {
                # Objective throughput (Eq. 1), as in Figs. 6/7/10.
                "throughput_gbps": placement.objective,
                "block_utilization": placement.block_utilization,
                "entry_utilization": placement.entry_utilization,
                "placed": float(placement.num_placed),
            }

        mean = mean_over_trials(run_trials(trial, trials, seed))
        result.add_row(time_limit_s=limit, **mean)
    return result


def check(result: ExperimentResult) -> list[tuple[str, bool]]:
    """Fig. 9's shape claims, as ``(claim, ok)`` pairs."""
    objective = np.array(result.column("throughput_gbps"))
    return [
        (
            # Same dataset, larger budget: HiGHS's incumbent can only
            # improve (up to tiny solver noise).
            "objective non-decreasing in the time limit",
            all(a <= b + 1e-3 * max(1.0, b) for a, b in zip(objective, objective[1:])),
        ),
        ("tightest limit no better than the loosest", objective[0] <= objective[-1]),
        ("loosest limit reaches a positive optimum", objective[-1] > 0),
    ]
