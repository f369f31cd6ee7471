"""Ablation — joint vs separate physical/logical placement (Challenge 2).

The paper argues the two-level allocation must be optimized *jointly*:
fixing the physical layout first (here: the greedy algorithm's layout, a
reasonable heuristic) and then optimally placing logical NFs on it cannot
beat the joint ILP, and typically loses.  This bench quantifies the gap.
"""

import numpy as np

from repro.core.ilp import solve_ilp
from repro.core.separate import solve_separate
from repro.traffic import WorkloadConfig, make_instance


def test_joint_vs_separate(run_once):
    def experiment():
        rows = []
        for seed in (1, 2, 3):
            instance = make_instance(
                WorkloadConfig(num_sfcs=14), max_recirculations=2, rng=seed
            )
            joint = solve_ilp(instance, time_limit=120.0)
            separate = solve_separate(instance, time_limit=120.0)
            rows.append((joint.objective, separate.objective))
        return rows

    rows = run_once(experiment)
    gaps = []
    for joint_obj, separate_obj in rows:
        assert separate_obj <= joint_obj + 1e-6, "joint is optimal by construction"
        gaps.append(1.0 - separate_obj / joint_obj if joint_obj else 0.0)
    print(f"joint-vs-separate objective gaps: {np.round(gaps, 4)}")
    assert min(gaps) >= 0.0
