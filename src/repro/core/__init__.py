"""SFP control plane: the paper's primary contribution.

Joint placement of *physical* NFs (type -> pipeline stage, variables
``x_ik``) and *logical* NFs (chain position -> virtual stage, variables
``z_ijkl``) to maximize offloaded tenant traffic, plus the LP-relaxation
rounding algorithm and the greedy baseline.

Module map (paper section -> module):

* Table I / problem data    -> :mod:`repro.core.spec`
* §V-A IP formulation       -> :mod:`repro.core.ilp`
* §V-B/§V-C Algorithm 1     -> :mod:`repro.core.rounding`
* §V-D Algorithm 2 (greedy) -> :mod:`repro.core.greedy`
* §V-E runtime update       -> :mod:`repro.controller` (``SfcController``)
* solution representation   -> :mod:`repro.core.placement`
* feasibility checking      -> :mod:`repro.core.verify`
"""

from repro.core.greedy import greedy_place
from repro.core.ilp import PlacementILP, build_placement_model, solve_ilp
from repro.core.placement import NFAssignment, Placement
from repro.core.rounding import RoundingResult, sfc_metric, solve_with_rounding
from repro.core.spec import (
    SFC,
    NFType,
    ProblemInstance,
    SwitchSpec,
    default_nf_catalog,
)
from repro.core.verify import check_placement

__all__ = [
    "SFC",
    "NFAssignment",
    "NFType",
    "Placement",
    "PlacementILP",
    "ProblemInstance",
    "RoundingResult",
    "SwitchSpec",
    "build_placement_model",
    "check_placement",
    "default_nf_catalog",
    "greedy_place",
    "sfc_metric",
    "solve_ilp",
    "solve_with_rounding",
]
