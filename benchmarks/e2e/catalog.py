"""The benchmark's names: workloads, end-to-end metrics, per-layer metrics.

``BENCHMARK.json`` at the repo root states the same lists for the driver;
``tests/test_catalog.py`` keeps the two equal.  ``moves`` on a per-layer
metric is the prediction written down before measuring: the end-to-end
metric and workload a change to that layer should move (README.md has
the full interaction list).
"""

from __future__ import annotations

from typing import NamedTuple

SCHEMA_VERSION = 1

#: Length of one measured window; the driver passes it back as ``--seconds``.
RUN_SECONDS = 15

WORKLOADS = {
    "intent_http": (
        "closed loop, 2 keep-alive HTTP connections to a live FrontendServer with "
        "fsync=always WAL and a pumped standby: frontend, WAL and HA do the work"
    ),
    "intent_place": (
        "one thread replays a seeded churn stream straight into FabricOrchestrator on a "
        "fleet that refuses 20-40%: admission, placement, stitching and install do the work"
    ),
    "pkt_bulk": (
        "64 B VLAN frames, 8 tenants, 4096-packet batches, every lookup hits: parser and "
        "kernel inner loops dominate, per-plan overhead is amortised over 512 lanes"
    ),
    "pkt_mixed": (
        "64 tenants, 512-packet batches, size mix, half VxLAN, folded chains, a metered "
        "fallback tenant in 11, a write every 4th batch: per-plan dispatch dominates"
    ),
}


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float
    meaning: str


END_TO_END = (
    EndToEnd("setup_s", "s", "lower", 0.25,
             "build fleet or pipeline, generate inputs, warm caches (median of 3 set-ups)"),
    EndToEnd("throughput_per_s", "1/s", "higher", 0.25,
             "intents per second on intent_*, wire frames per second on pkt_*"),
    EndToEnd("latency_p50_ms", "ms", "lower", 0.25,
             "median latency of one intent (intent_*) or one batch (pkt_*)"),
    EndToEnd("latency_tail_ms", "ms", "lower", 0.25,
             "intent p95 / batch p90, or the highest percentile with >=10 samples beyond it"),
    EndToEnd("admitted_share", "share", "higher", 0.10,
             "tenant arrivals admitted over arrivals offered"),
    EndToEnd("offloaded_gbps", "gbps", "higher", 0.10,
             "Eq. 1: mean over samples of sum of chain length x bandwidth of live tenants"),
    EndToEnd("recover_s", "s", "lower", 0.25,
             "digest-verified recovery of the directory the run left behind (fastest of 5-25)"),
    EndToEnd("peak_rss_mb", "mb", "lower", 0.15,
             "ru_maxrss of the process doing the work, read when the window closes"),
)


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    moves: str


_L = PerLayer

PER_LAYER = (
    # -- intent path ---------------------------------------------------
    _L("frontend.server.roundtrip_ms", "ms", "lower", "latency_p50_ms, throughput_per_s @ intent_http"),
    _L("frontend.server.self_ms", "ms", "lower", "latency_p50_ms, throughput_per_s @ intent_http"),
    _L("frontend.server.http_429", "count", "lower", "throughput_per_s @ intent_http"),
    _L("frontend.queue.wait_ms", "ms", "lower", "latency_tail_ms @ intent_http"),
    _L("frontend.queue.depth_max", "count", "lower", "latency_tail_ms @ intent_http"),
    _L("frontend.queue.rejected", "count", "lower", "latency_tail_ms @ intent_http"),
    _L("frontend.workers.busy_share", "share", "lower", "throughput_per_s @ intent_http"),
    _L("frontend.workers.escalated", "count", "lower", "throughput_per_s @ intent_http"),
    _L("fabric.orchestrator.admit_self_ms", "ms", "lower", "throughput_per_s, latency_tail_ms @ intent_place"),
    _L("fabric.orchestrator.modify_self_ms", "ms", "lower", "throughput_per_s, latency_tail_ms @ intent_place"),
    _L("fabric.orchestrator.evict_self_ms", "ms", "lower", "throughput_per_s, latency_tail_ms @ intent_place"),
    _L("fabric.orchestrator.shards_visited_per_admit", "count", "lower", "admitted_share, offloaded_gbps @ intent_place"),
    _L("fabric.orchestrator.spillovers", "count", "lower", "admitted_share, offloaded_gbps @ intent_place"),
    _L("fabric.orchestrator.stitched", "count", "higher", "admitted_share, offloaded_gbps @ intent_place"),
    _L("fabric.partitioner.order_us", "us", "lower", "throughput_per_s @ intent_place"),
    _L("controller.admission.check_us", "us", "lower", "throughput_per_s @ intent_place"),
    _L("controller.admission.rejects", "count", "lower", "admitted_share @ intent_place"),
    _L("controller.controller.admit_self_ms", "ms", "lower", "throughput_per_s @ intent_place"),
    _L("controller.controller.can_host_calls", "count", "lower", "throughput_per_s @ intent_place"),
    _L("controller.install.install_ms", "ms", "lower", "throughput_per_s @ intent_place"),
    _L("controller.install.rules_written", "count", "lower", "throughput_per_s @ intent_place"),
    _L("dataplane.runtime_api.write_ms", "ms", "lower", "throughput_per_s @ intent_place"),
    _L("dataplane.runtime_api.ops_per_write", "count", "higher", "throughput_per_s @ intent_place"),
    _L("dataplane.runtime_api.rollbacks", "count", "lower", "throughput_per_s @ intent_place"),
    _L("durability.wal.append_us", "us", "lower", "latency_p50_ms, throughput_per_s @ intent_http"),
    _L("durability.wal.sync_ms", "ms", "lower", "latency_p50_ms, throughput_per_s @ intent_http"),
    _L("durability.wal.syncs_per_op", "count", "lower", "latency_p50_ms, throughput_per_s @ intent_http"),
    _L("durability.wal.bytes_per_op", "count", "lower", "latency_p50_ms, throughput_per_s @ intent_http"),
    _L("durability.checkpoint.checkpoint_ms", "ms", "lower", "latency_tail_ms @ intent_place"),
    _L("durability.checkpoint.count", "count", "lower", "latency_tail_ms @ intent_place"),
    _L("durability.recover.replay_us_per_record", "us", "lower", "recover_s"),
    _L("durability.recover.records_replayed", "count", "lower", "recover_s"),
    _L("ha.ship.pump_ms", "ms", "lower", "throughput_per_s @ intent_http"),
    _L("ha.ship.records_per_pump", "count", "higher", "throughput_per_s @ intent_http"),
    _L("ha.standby.feed_us", "us", "lower", "throughput_per_s @ intent_http"),
    _L("ha.standby.lag_p99_records", "count", "lower", "throughput_per_s @ intent_http"),
    _L("loadgen.cpu_share", "share", "lower", "qualifies throughput_per_s @ intent_http"),
    _L("server.cpu_share", "share", "lower", "qualifies throughput_per_s @ intent_http"),
    # -- packet path ---------------------------------------------------
    _L("dataplane.parser.parse_us_per_pkt", "us", "lower", "throughput_per_s @ pkt_bulk"),
    _L("dataplane.parser.deparse_us_per_pkt", "us", "lower", "throughput_per_s @ pkt_bulk"),
    _L("dataplane.parser.parse_errors", "count", "lower", "throughput_per_s @ pkt_bulk"),
    _L("fastpath.engine.dispatch_self_ms_per_batch", "ms", "lower", "throughput_per_s, latency_p50_ms @ pkt_mixed"),
    _L("fastpath.engine.plan_hit_share", "share", "higher", "throughput_per_s, latency_p50_ms @ pkt_mixed"),
    _L("fastpath.engine.invalidations", "count", "lower", "throughput_per_s, latency_p50_ms @ pkt_mixed"),
    _L("fastpath.engine.fastpath_share", "share", "higher", "throughput_per_s, latency_p50_ms @ pkt_mixed"),
    _L("fastpath.compiler.compile_ms", "ms", "lower", "latency_tail_ms @ pkt_mixed"),
    _L("fastpath.compiler.compiles", "count", "lower", "latency_tail_ms @ pkt_mixed"),
    _L("fastpath.kernels.run_us_per_lane", "us", "lower", "throughput_per_s @ pkt_bulk"),
    _L("fastpath.kernels.lanes_per_run", "count", "higher", "throughput_per_s @ pkt_bulk"),
    _L("dataplane.pipeline.process_us_per_pkt", "us", "lower", "throughput_per_s @ pkt_mixed"),
    _L("dataplane.pipeline.passes_per_pkt", "count", "lower", "throughput_per_s @ pkt_mixed"),
    _L("dataplane.pipeline.recirc_overflows", "count", "lower", "throughput_per_s @ pkt_mixed"),
    _L("dataplane.table.hit_share", "share", "higher", "throughput_per_s @ pkt_bulk"),
    # -- every workload ------------------------------------------------
    _L("trace.overhead_share", "share", "lower", "none: cost of the wrappers"),
    _L("trace.unattributed_share", "share", "lower", "none: wall no layer's self time covers"),
)

#: Layers whose summed self time, as a share of all layers' self time, is
#: the budget each workload is checked against (``budget.<layer>``).
BUDGET_LAYERS = (
    "frontend.server",
    "frontend.queue",
    "frontend.workers",
    "fabric.orchestrator",
    "fabric.partitioner",
    "fabric.stitching",
    "controller.controller",
    "controller.admission",
    "controller.install",
    "dataplane.runtime_api",
    "dataplane.parser",
    "dataplane.pipeline",
    "fastpath.engine",
    "fastpath.compiler",
    "fastpath.kernels",
    "durability.wal",
    "durability.checkpoint",
    "ha.lease",
    "ha.ship",
    "ha.standby",
)

PER_LAYER += tuple(
    _L(f"budget.{layer}", "share", "lower", "share of all layers' self time")
    for layer in BUDGET_LAYERS
)


def benchmark_json() -> dict:
    """The object ``BENCHMARK.json`` must hold."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }

