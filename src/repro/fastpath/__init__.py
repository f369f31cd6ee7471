"""Compiled dataplane fast path (ROADMAP item 2).

The interpreted :class:`~repro.dataplane.pipeline.SwitchPipeline` walks
every packet through every stage, table, dict lookup and action-registry
resolution — faithful, and the oracle.  This package executes packet
batches as header-field *columns* on numpy over the paper's own table
layout (Fig. 3): one physical table per NF, each tenant's rules a block of
it selected by ``(tenant_id, pass_id)`` — which are lane columns, so a
batch of any tenant mix is **one** kernel run.

Three pieces:

* :mod:`repro.fastpath.compiler` — lowers a tenant's *partition* of a table
  (never the whole table) to one rank-ordered array block per pass, with
  table refs pre-resolved and action parameters pre-coerced, and gives the
  per-tenant compilable / ``fallback_reason`` verdict plus the generations
  of the partitions it read.
* :mod:`repro.fastpath.kernels` — the per-table block stacks and the
  columnar batch kernel (rank-major matching across tenants).
* :mod:`repro.fastpath.engine` — the verdict and block caches hung on
  ``pipeline.fastpath``; :meth:`FastPathEngine.process_batch` routes traced,
  sampled, mid-recirculation or uncompilable packets to the interpreter
  (which stays the differential oracle, exactly as ``lookup_reference``
  does for the lookup index) and everything else through the kernel.
  Invalidation is one rule: what was compiled is current iff the partition
  generations it was read at are unchanged.

The contract throughout: results, counters, postcards — bit-identical to
``SwitchPipeline.process_batch_interpreted``.
"""

from repro.fastpath.compiler import (
    SCALAR_ACTIONS,
    VECTOR_ACTIONS,
    CompiledChain,
    compile_chain,
)
from repro.fastpath.engine import FastPathEngine
from repro.fastpath.kernels import NumpyKernel

__all__ = [
    "CompiledChain",
    "FastPathEngine",
    "NumpyKernel",
    "SCALAR_ACTIONS",
    "VECTOR_ACTIONS",
    "compile_chain",
]
