"""Fig. 9 — Early-terminating the IP solver under runtime limits.

25 SFCs.  The solver is given wall-clock limits (the paper uses 5..60 s);
at the tightest limit no incumbent exists yet ("performance is 0"), a little
more time yields a near-optimal incumbent, and by ~30 s the objective reaches
the optimum — making early termination a viable alternative to LP rounding.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.ilp import solve_ilp
from repro.experiments.config import PAPER_SWITCH, PAPER_WORKLOAD
from repro.experiments.harness import ExperimentResult, mean_over_trials, run_trials
from repro.traffic.workload import make_instance

TIME_LIMITS = (5.0, 10.0, 20.0, 30.0, 60.0)
NUM_SFCS = 25
MAX_RECIRCULATIONS = 2


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
    result.notes.append(
        "paper: 0 at the 5 s limit, near-optimal at 10 s, optimal by 30 s"
    )
    return result


if __name__ == "__main__":  # pragma: no cover
    run().print()
