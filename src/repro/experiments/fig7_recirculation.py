"""Fig. 7 — Impact of recirculation times (virtual pipeline 8..56 stages).

15 candidate SFCs (few, to isolate the recirculation effect), each 8 NFs
long over 10 types, on the 8-stage switch.  The paper finds one recirculation
lifts throughput (length-8 chains in arbitrary type order rarely fit one
pass) but further recirculations do not help; block utilization is similar
across variants while SFP's entry utilization stays higher.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.core.rounding import solve_with_rounding
from repro.experiments.config import PAPER_SWITCH, PAPER_TRIALS, PAPER_WORKLOAD
from repro.experiments.harness import ExperimentResult, mean_over_trials, run_trials
from repro.traffic.workload import make_instance

RECIRCULATIONS = (0, 1, 2, 3, 4, 5, 6)
NUM_SFCS = 15
CHAIN_LENGTH = 8

GRIDS = {
    "smoke": {"recirculations": (0, 1, 2), "trials": 1},
    "quick": {"recirculations": (0, 1, 2, 3), "trials": 2},
    "paper": {},
}

PAPER = (
    "One recirculation lifts throughput (138.3 -> 142.0 Gbps); more do not; "
    "block utilization similar across variants, SFP entry utilization higher."
)


def run(
    recirculations=RECIRCULATIONS,
    trials: int = PAPER_TRIALS,
    seed: int | None = None,
) -> ExperimentResult:
    """Regenerate Fig. 7's sweep over the recirculation budget."""
    config = replace(
        PAPER_WORKLOAD,
        num_sfcs=NUM_SFCS,
        avg_chain_length=CHAIN_LENGTH,
        chain_length_spread=0,
    )
    result = ExperimentResult(
        name="fig7",
        description="throughput + utilization vs recirculation budget "
        "(virtual stages 8..56)",
        columns=[
            "recirculations",
            "virtual_stages",
            "sfp_gbps",
            "base_gbps",
            "sfp_blocks",
            "base_blocks",
            "sfp_entry_util",
            "base_entry_util",
        ],
    )
    for r in recirculations:
        def trial(rng):
            instance = make_instance(
                config, switch=PAPER_SWITCH, max_recirculations=r, rng=rng
            )
            # Pin the budget to exactly r (the sweep point), not 0..r, and
            # pair the variants on an identical rounding stream.
            rounding_seed = int(rng.integers(2**31))
            sfp = solve_with_rounding(
                instance,
                consolidate=True,
                rng=rounding_seed,
                recirculation_budgets=[r],
            ).placement
            base = solve_with_rounding(
                instance,
                consolidate=False,
                rng=rounding_seed,
                recirculation_budgets=[r],
            ).placement
            return {
                # Objective throughput (Eq. 1); see EXPERIMENTS.md.
                "sfp_gbps": sfp.objective,
                "base_gbps": base.objective,
                "sfp_blocks": sfp.block_utilization,
                "base_blocks": base.block_utilization,
                "sfp_entry_util": sfp.entry_utilization,
                "base_entry_util": base.entry_utilization,
            }

        mean = mean_over_trials(run_trials(trial, trials, seed))
        result.add_row(
            recirculations=r,
            virtual_stages=PAPER_SWITCH.stages * (r + 1),
            **mean,
        )
    return result


def check(result: ExperimentResult) -> list[tuple[str, bool]]:
    """Fig. 7's shape claims, as ``(claim, ok)`` pairs."""
    sfp = np.array(result.column("sfp_gbps"))
    first_gain = sfp[1] - sfp[0]
    # Later budgets add no more than the first did (tolerating the
    # randomized rounding's noise).
    later = np.diff(sfp[1:])
    return [
        ("one recirculation does not hurt (paper: helps)", sfp[1] >= sfp[0]),
        (
            "further recirculations plateau",
            (later <= max(first_gain, 0.05 * sfp[1]) + 1e-6).all(),
        ),
        (
            "SFP entry util above baseline",
            np.mean(result.column("sfp_entry_util"))
            > np.mean(result.column("base_entry_util")),
        ),
    ]
