"""What ``run.py`` asks of a workload.

Constructing one is a *set-up*: build the fleet or pipeline, generate the
inputs from the seed, warm the caches.  The constructor is what
``setup_s`` times, and it is called three times a run.
"""

from __future__ import annotations

import shutil
from time import perf_counter

import budget

#: ``recover_s`` is the fastest recovery over fresh copies of one directory:
#: at least MIN of them, then more until BUDGET_S is spent.  The host
#: switches between a fast and a 1.5x slower regime every few seconds;
#: the work is the same each time, so the fastest copy is the one that
#: measured the program rather than the host (a median flips with the mix).
MIN_RECOVERIES = 5
MAX_RECOVERIES = 25
RECOVERY_BUDGET_S = 1.5


def timed_recoveries(directory: str, recover, live_digest: str) -> tuple[list[float], list[str], dict]:
    """Time ``recover(copy) -> (recovered, report)`` on copies of
    ``directory`` and hold every recovered digest to ``live_digest``.
    Returns ``(seconds each took, problems, facts)``."""
    times: list[float] = []
    problems: list[str] = []
    replayed = 0
    while len(times) < MIN_RECOVERIES or (
        sum(times) < RECOVERY_BUDGET_S and len(times) < MAX_RECOVERIES
    ):
        copy = f"{directory}.recover{len(times)}"
        shutil.copytree(directory, copy)
        t0 = perf_counter()
        recovered, report = recover(copy)
        times.append(perf_counter() - t0)
        recovered.durability.close()
        replayed = report.replayed
        if report.digest != live_digest or not report.ok:
            problems.append(
                f"recovered digest {report.digest} != live {live_digest}; {list(report.problems)}"
            )
    return times, problems, {"records_replayed": replayed, "recoveries": len(times)}


class Workload:
    def measure(self, seconds: float, rec=None) -> dict:
        """The measured window.  ``rec`` is a ``spans.Recorder`` on the
        traced pass, where the workload also opens its own root spans."""
        raise NotImplementedError

    def check(self, measured: dict) -> tuple[list[str], int, dict]:
        """Correctness checks, after timing: ``(problems, failed
        operations, facts worth printing)``."""
        raise NotImplementedError

    def recover(self) -> tuple[list[float], list[str], dict]:
        """Bring the durability directory the window left behind to a fixed
        length of journal, then :func:`timed_recoveries` on it."""
        raise NotImplementedError

    def layer_metrics(self, measured: dict) -> dict:
        """Per-layer metrics read off the program's own counters."""
        raise NotImplementedError

    def install_spans(self, rec) -> None:
        """Wrap the layers this workload crosses (in this process)."""
        raise NotImplementedError

    def trace_spans(self, rec) -> list:
        """All spans of the traced pass."""
        return rec.spans

    def blocking_path(self, measured: dict, spans, layers: dict, selfs: dict) -> tuple[dict, float]:
        """Extra per-layer metrics, and the share of the blocking wall no
        layer's self time covers.  One thread did all the work here, so the
        blocking wall is the window."""
        return {}, budget.unattributed(layers, measured["wall_s"])

    def close(self) -> None:
        raise NotImplementedError
