"""Experiment runners — one per evaluation figure (Figs. 4-11, §VI).

Each ``figN_*`` module exports:

* ``run(..., seed) -> ExperimentResult``: the rows and series the figure
  plots; its defaults are the paper's sweep;
* ``GRIDS``: the ``run()`` kwargs of each scale in :data:`SCALES` —
  ``smoke`` (seconds, checked by the tests), ``quick`` (minutes, what
  EXPERIMENTS.md records) and ``paper`` (the defaults);
* ``PAPER``: the paper's claim, as one string;
* ``check(result)``: the figure's shape claims, as ``(claim, ok)`` pairs.

:data:`FIGURES` is the registry; :func:`figure` imports one runner on
demand, so importing this package or its ``config`` loads none of them.
``sfp fig N --scale S`` runs one figure, ``sfp report --scale S`` all.
"""

from __future__ import annotations

import importlib
from types import ModuleType

from repro.errors import ExperimentError
from repro.experiments.harness import ExperimentResult, mean_over_trials, run_trials

FIGURES = {
    4: "fig4_throughput",
    5: "fig5_latency",
    6: "fig6_num_sfcs",
    7: "fig7_recirculation",
    8: "fig8_solver_runtime",
    9: "fig9_early_termination",
    10: "fig10_algorithms",
    11: "fig11_runtime_update",
}

SCALES = ("smoke", "quick", "paper")


def figure(number: int) -> ModuleType:
    """The runner module of paper figure ``number``."""
    if number not in FIGURES:
        raise ExperimentError(
            f"no figure {number}; the paper's are {', '.join(map(str, FIGURES))}"
        )
    return importlib.import_module(f"{__name__}.{FIGURES[number]}")


__all__ = [
    "FIGURES",
    "SCALES",
    "ExperimentResult",
    "figure",
    "mean_over_trials",
    "run_trials",
]
