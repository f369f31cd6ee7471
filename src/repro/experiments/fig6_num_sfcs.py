"""Fig. 6 — Throughput and resource utilization vs the number of SFC
candidates L (10..50), SFP vs SFP-without-consolidation.

Paper observations to reproduce: blocks saturate near the 20/stage bound by
L≈15 for both variants; throughput grows with L (more candidates to pick
from); SFP's consolidated memory accounting yields slightly higher throughput
and clearly higher entry utilization than the no-consolidation baseline,
whose per-NF ceil leaves internal fragmentation.

Settings: 10 NF types, average chain length 5, max recirculation 3, five
datasets averaged.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.core.rounding import solve_with_rounding
from repro.experiments.config import PAPER_SWITCH, PAPER_TRIALS, PAPER_WORKLOAD
from repro.experiments.harness import ExperimentResult, mean_over_trials, run_trials
from repro.traffic.workload import make_instance

#: Fig. 6 sweeps L in 10..50; "maximum recirculation time" is 3.
L_VALUES = (10, 20, 30, 40, 50)
MAX_RECIRCULATIONS = 3

GRIDS = {
    "smoke": {"l_values": (6, 24), "trials": 1},
    "quick": {"l_values": (10, 20, 30), "trials": 1},
    "paper": {},
}

PAPER = (
    "Blocks saturate near 20/stage by L~15; throughput grows with L; SFP "
    "slightly above the no-consolidation baseline in throughput and clearly "
    "above in entry utilization (247.1 vs 227.0 Gbps at L=30)."
)


def run(
    l_values=L_VALUES,
    trials: int = PAPER_TRIALS,
    seed: int | None = None,
) -> ExperimentResult:
    """Regenerate Fig. 6's sweep over the number of SFC candidates."""
    result = ExperimentResult(
        name="fig6",
        description="objective throughput + block/entry utilization vs "
        "number of SFCs (SFP vs no-consolidation)",
        columns=[
            "num_sfcs",
            "sfp_gbps",
            "base_gbps",
            "sfp_blocks",
            "base_blocks",
            "sfp_entry_util",
            "base_entry_util",
            "sfp_backplane",
            "base_backplane",
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
            # Pair the variants on an identical rounding stream so the
            # comparison isolates the memory-accounting difference.
            rounding_seed = int(rng.integers(2**31))
            sfp = solve_with_rounding(
                instance, consolidate=True, rng=rounding_seed
            ).placement
            base = solve_with_rounding(
                instance, consolidate=False, rng=rounding_seed
            ).placement
            return {
                # "Throughput" is the objective (Eq. 1) all algorithms
                # maximize — see EXPERIMENTS.md on metric choice.
                "sfp_gbps": sfp.objective,
                "base_gbps": base.objective,
                "sfp_blocks": sfp.block_utilization,
                "base_blocks": base.block_utilization,
                "sfp_entry_util": sfp.entry_utilization,
                "base_entry_util": base.entry_utilization,
                "sfp_backplane": sfp.backplane_gbps,
                "base_backplane": base.backplane_gbps,
            }

        mean = mean_over_trials(run_trials(trial, trials, seed))
        result.add_row(num_sfcs=L, **mean)
    return result


def check(result: ExperimentResult) -> list[tuple[str, bool]]:
    """Fig. 6's shape claims, as ``(claim, ok)`` pairs."""
    sfp = np.array(result.column("sfp_gbps"))
    base = np.array(result.column("base_gbps"))
    eu_gap = np.array(result.column("sfp_entry_util")) - np.array(
        result.column("base_entry_util")
    )
    return [
        ("throughput grows with L", sfp[-1] > sfp[0]),
        ("SFP >= baseline on average", sfp.mean() >= base.mean() - 1e-6),
        ("SFP entry utilization clearly higher", (eu_gap > 0).all()),
        ("blocks approach the 20/stage bound", result.rows[-1]["sfp_blocks"] > 15),
    ]
