"""Exception hierarchy for the SFP reproduction.

Every subsystem raises a subclass of :class:`ReproError` so callers can catch
library failures without accidentally swallowing programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ModelError(ReproError):
    """Raised when an optimization model is built or used incorrectly
    (duplicate variable names, mismatched model ownership, a NaN
    coefficient, ...)."""


class SolverError(ReproError):
    """Raised when a solve fails in a way that is not simply an
    infeasible/unbounded status (e.g. a non-positive ``time_limit``)."""


class InfeasibleError(SolverError):
    """Raised by callers who required a feasible solution and got none."""


class UnboundedError(SolverError):
    """Raised when a model with an unbounded objective is solved and the
    caller required a finite optimum."""


class DataPlaneError(ReproError):
    """Raised on invalid data-plane operations (bad table entries,
    out-of-resource installs, malformed packets)."""


class ResourceExhaustedError(DataPlaneError):
    """Raised when an install would exceed a stage's SRAM blocks/entries or
    the pipeline's recirculation budget."""


class PlacementError(ReproError):
    """Raised when a placement solution violates the problem constraints or
    when a placement request cannot be expressed (e.g. unknown NF type)."""


class WorkloadError(ReproError):
    """Raised on invalid workload-generator parameters."""


class DurabilityError(ReproError):
    """Raised on write-ahead-log / checkpoint / recovery failures (corrupt
    manifests, incompatible checkpoints, unrecoverable log state)."""


class FencedError(DurabilityError):
    """Raised when a deposed primary — one whose lease epoch is no longer
    current — attempts a fenced operation: a WAL append or a frontend
    write.  The operation was **not** committed; the caller must redirect
    to the current primary.  This is what makes split-brain unable to
    commit: losing the lease turns every durability path into a fast
    failure instead of a silent divergent write."""


class ExperimentError(ReproError):
    """Raised when an experiment is asked for a paper figure or a sweep
    scale that does not exist."""


class ScenarioError(ReproError):
    """Raised on invalid scenario/campaign specs (malformed load curves,
    fault schedules referencing unknown switches, unparseable spec files)."""


class FrontendError(ReproError):
    """Raised on invalid front-end requests or lifecycle misuse (malformed
    intents, submitting to a closed queue, stopping a stopped pool)."""


class QueueFullError(FrontendError):
    """Raised when an intent queue refuses a submission — the per-tenant
    FIFO or the global bound is full.  The HTTP server maps this to 429
    (backpressure); in-process callers retry or shed load themselves."""
