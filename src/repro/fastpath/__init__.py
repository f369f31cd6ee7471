"""Compiled dataplane fast path (ROADMAP item 2).

The interpreted :class:`~repro.dataplane.pipeline.SwitchPipeline` walks
every packet through every stage, table, dict lookup and action-registry
resolution — faithful, but ~5.4k packets/s.  This package compiles each
tenant's *installed* chain once into a flat :class:`CompiledChain` — table
refs pre-resolved, ``(tenant_id, pass_id)`` match components constant-folded
away, action parameters pre-coerced — and executes packet batches as
header-field *columns* on numpy.

Three pieces:

* :mod:`repro.fastpath.compiler` — walks a tenant's rules once per
  recirculation pass and emits the fused step list plus the invalidation
  keys (per-table generations, pipeline structure generation, the tenant
  constants the folds depended on).
* :mod:`repro.fastpath.kernels` — the columnar batch kernel.
* :mod:`repro.fastpath.engine` — the per-tenant plan cache hung on
  ``pipeline.fastpath``; :meth:`FastPathEngine.process_batch` routes traced,
  sampled, mid-recirculation or uncompilable packets to the interpreter
  (which stays the differential oracle, exactly as ``lookup_reference``
  does for the lookup index) and everything else through the kernel.

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
