"""Shared experiment plumbing: result tables, trial averaging, printing."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from repro.rng import make_rng, spawn


@dataclass
class ExperimentResult:
    """A figure's data: named columns, one row per x-axis point."""

    name: str
    description: str
    columns: list[str]
    rows: list[dict] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_row(self, **values) -> None:
        """Append one x-axis point; every declared column is required."""
        missing = [c for c in self.columns if c not in values]
        if missing:
            raise ValueError(f"row missing columns {missing}")
        self.rows.append({c: values[c] for c in self.columns})

    def column(self, name: str) -> list:
        """All values of one column, in row order (a figure series)."""
        return [row[name] for row in self.rows]

    # ------------------------------------------------------------------
    def format_table(self, float_fmt: str = "{:.2f}") -> str:
        """Render as a fixed-width text table (what the paper's figures plot)."""
        def fmt(value) -> str:
            if isinstance(value, float):
                return float_fmt.format(value)
            return str(value)

        widths = {
            c: max(len(c), *(len(fmt(row[c])) for row in self.rows)) if self.rows else len(c)
            for c in self.columns
        }
        header = "  ".join(c.ljust(widths[c]) for c in self.columns)
        lines = [f"== {self.name}: {self.description} ==", header, "-" * len(header)]
        for row in self.rows:
            lines.append("  ".join(fmt(row[c]).ljust(widths[c]) for c in self.columns))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


def run_trials(
    fn: Callable[[np.random.Generator], dict],
    trials: int,
    seed: int | np.random.Generator | None,
) -> list[dict]:
    """Run ``fn`` once per independent RNG stream (the paper averages five
    synthesized datasets per experiment)."""
    rng = make_rng(seed)
    return [fn(child) for child in spawn(rng, trials)]


def mean_over_trials(results: Iterable[dict]) -> dict:
    """Average numeric values key-wise across trial dictionaries."""
    results = list(results)
    if not results:
        return {}
    out: dict = {}
    for key in results[0]:
        values = [r[key] for r in results]
        if all(isinstance(v, (int, float)) for v in values):
            out[key] = float(np.mean(values))
        else:
            out[key] = values[0]
    return out
