"""Each paper figure's smoke-grid report at the report's seed, run once per
test session: the figure contract and the CLI tests read the same runs."""

from __future__ import annotations

import functools

from repro.experiments.report import FigureReport, run_figure

SEED = 11


@functools.cache
def smoke_report(number: int) -> FigureReport:
    return run_figure(number, "smoke", SEED)
