"""Multi-switch fabric orchestration: shard tenant SFCs across a cluster.

One :class:`~repro.controller.controller.SfcController` per fabric switch,
a pluggable tenant→switch partitioner with per-switch admission fallback,
cross-switch chain stitching over capacity-annotated links, and
drain/failover — all behind the single tenant-facing
:class:`FabricOrchestrator` API.
"""

from repro.fabric.orchestrator import (
    DrainReport,
    FabricOpResult,
    FabricOrchestrator,
    FabricTenant,
    Segment,
)
from repro.fabric.partitioner import (
    PARTITIONERS,
    ConsistentHashPartitioner,
    LeastBackplanePartitioner,
    ModuloPartitioner,
    Partitioner,
    make_partitioner,
)
from repro.fabric.stitching import StitchPlan, plan_stitch, split_chain, split_points
from repro.fabric.topology import (
    FabricLink,
    FabricTopology,
    LinkKey,
    SwitchNode,
    link_key,
)

__all__ = [
    "PARTITIONERS",
    "ConsistentHashPartitioner",
    "DrainReport",
    "FabricLink",
    "FabricOpResult",
    "FabricOrchestrator",
    "FabricTenant",
    "FabricTopology",
    "LeastBackplanePartitioner",
    "LinkKey",
    "ModuloPartitioner",
    "Partitioner",
    "Segment",
    "StitchPlan",
    "SwitchNode",
    "link_key",
    "make_partitioner",
    "plan_stitch",
    "split_chain",
    "split_points",
]
