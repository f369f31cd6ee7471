"""Fig. 10 — Objective throughput of SFP-IP vs SFP-Appro. vs Greedy.

8 stages, 2 recirculations, 10 NF types, average chain length 5, L swept up
to 60.  The paper's shape: the IP nearly saturates the 400 Gbps backplane by
~50 SFCs; Appro tracks it a few percent below and the greedy heuristic sits
lowest (398 vs 377 vs 367 Gbps at 60 SFCs).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.core.greedy import greedy_place
from repro.core.ilp import solve_ilp
from repro.core.rounding import solve_with_rounding
from repro.experiments.config import PAPER_SWITCH, PAPER_WORKLOAD
from repro.experiments.harness import ExperimentResult, mean_over_trials, run_trials
from repro.traffic.workload import make_instance

L_VALUES = (10, 20, 30, 40, 50, 60)
MAX_RECIRCULATIONS = 2

GRIDS = {
    "smoke": {"l_values": (4, 8), "ilp_time_limit": 5.0},
    # Mid-scale even under "quick": the IP/Appro/greedy separation only
    # emerges once memory+capacity bind (L >= ~25).
    "quick": {"l_values": (10, 25, 40), "ilp_time_limit": 120.0},
    "paper": {},
}

PAPER = (
    "Objective throughput IP > Appro > greedy (398 vs 377 vs 367 Gbps at 60 "
    "SFCs); IP saturates the switch by ~50 SFCs."
)


def run(
    l_values=L_VALUES,
    trials: int = 1,
    seed: int | None = None,
    ilp_time_limit: float | None = 300.0,
) -> ExperimentResult:
    """Regenerate Fig. 10's three-algorithm comparison."""
    result = ExperimentResult(
        name="fig10",
        description="objective throughput: SFP-IP vs SFP-Appro. vs greedy, "
        "varying L",
        columns=[
            "num_sfcs",
            "ilp_gbps",
            "appro_gbps",
            "greedy_gbps",
            "appro_backplane",
            "greedy_backplane",
            "ilp_backplane",
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
            appro = solve_with_rounding(instance, rng=rng).placement
            greedy = greedy_place(instance)
            ilp = solve_ilp(instance, time_limit=ilp_time_limit)
            return {
                # Objective throughput (the figure's own axis label).
                "ilp_gbps": ilp.objective,
                "appro_gbps": appro.objective,
                "greedy_gbps": greedy.objective,
                "appro_backplane": appro.backplane_gbps,
                "greedy_backplane": greedy.backplane_gbps,
                "ilp_backplane": ilp.backplane_gbps,
            }

        mean = mean_over_trials(run_trials(trial, trials, seed))
        result.add_row(num_sfcs=L, **mean)
    missing = [row["num_sfcs"] for row in result.rows if row["ilp_gbps"] <= 0]
    if missing:
        result.notes.append(
            f"ilp_gbps = 0 at L in {missing}: the HiGHS substitute found no "
            "incumbent within the per-solve time limit (the paper's Fig. 9 "
            "tight-limit behaviour; its Gurobi baseline has stronger primal "
            "heuristics) — dominance is checked on the rows with incumbents"
        )
    return result


def check(result: ExperimentResult) -> list[tuple[str, bool]]:
    """Fig. 10's shape claims, as ``(claim, ok)`` pairs."""
    ilp = np.array(result.column("ilp_gbps"))
    appro = np.array(result.column("appro_gbps"))
    greedy = np.array(result.column("greedy_gbps"))
    # A time-limited ILP may end with no incumbent (objective 0, Fig. 9's
    # tight-limit behaviour); dominance applies only where one exists.
    has_incumbent = ilp > 0
    return [
        (
            "IP >= Appro pointwise where IP found an incumbent (2% slack)",
            has_incumbent.any()
            and (appro[has_incumbent] <= ilp[has_incumbent] * 1.02 + 1e-6).all(),
        ),
        ("Appro >= greedy on average", appro.mean() >= greedy.mean() - 1e-6),
        ("curves grow with L", appro[-1] >= appro[0] and greedy[-1] >= greedy[0]),
    ]
