"""From recorded spans to the per-layer metrics and the layer budget."""

from __future__ import annotations

from collections import defaultdict

from catalog import BUDGET_LAYERS, PER_LAYER
from quantiles import percentile
from spans import Span, by_name, layer_of, self_times

ORCHESTRATOR_OPS = ("admit", "modify", "evict")


def within(spans, start: float, end: float) -> list[Span]:
    """Spans that lie inside the measured window."""
    return [s for s in spans if s.start >= start and s.end <= end]


def empty() -> dict[str, float]:
    """Every per-layer metric at zero: a layer that did no work."""
    return {m.name: 0.0 for m in PER_LAYER}


def from_spans(spans: list[Span], ops: int) -> tuple[dict, dict, dict]:
    """Per-layer metrics that are arithmetic over ``spans`` (the measured
    window only), each layer's summed self time in seconds, and every
    span's self time."""
    selfs = self_times(spans)
    names = by_name(spans, selfs)
    name_of = {s.id: s.name for s in spans}
    out: dict[str, float] = {}

    def stat(*span_names):
        calls = total = self_s = n = 0
        for name in span_names:
            row = names.get(name)
            if row is not None:
                calls += row.calls
                total += row.total_s
                self_s += row.self_s
                n += row.n
        return calls, total, self_s, n

    def mean(value: float, over: float, scale: float) -> float:
        return value / over * scale if over else 0.0

    for op in ORCHESTRATOR_OPS:
        calls, _, self_s, _ = stat(f"fabric.orchestrator.{op}", f"fabric.orchestrator.{op}_local")
        out[f"fabric.orchestrator.{op}_self_ms"] = mean(self_s, calls, 1e3)
    fabric_admits = stat("fabric.orchestrator.admit", "fabric.orchestrator.admit_local")[0]
    shard_admits = sum(
        1 for s in spans
        if s.name == "controller.controller.admit"
        and name_of.get(s.parent, "").startswith("fabric.orchestrator.admit")
    )
    out["fabric.orchestrator.shards_visited_per_admit"] = mean(shard_admits, fabric_admits, 1)

    calls, total, _, _ = stat("fabric.partitioner.order")
    out["fabric.partitioner.order_us"] = mean(total, calls, 1e6)
    calls, total, _, _ = stat("controller.admission.check")
    out["controller.admission.check_us"] = mean(total, calls, 1e6)
    calls, _, self_s, _ = stat("controller.controller.admit")
    out["controller.controller.admit_self_ms"] = mean(self_s, calls, 1e3)
    out["controller.controller.can_host_calls"] = stat("controller.controller.can_host")[0]
    calls, total, _, _ = stat(
        "controller.install.install", "controller.install.evict", "controller.install.replace"
    )
    out["controller.install.install_ms"] = mean(total, calls, 1e3)
    calls, total, _, n = stat("dataplane.runtime_api.write")
    out["controller.install.rules_written"] = n
    out["dataplane.runtime_api.write_ms"] = mean(total, calls, 1e3)
    out["dataplane.runtime_api.ops_per_write"] = mean(n, calls, 1)
    out["dataplane.runtime_api.rollbacks"] = stat("dataplane.runtime_api.rollback")[0]

    # An append under fsync=always waits for its sync inside the call, so
    # the append's own cost is its self time.
    calls, _, self_s, n = stat("durability.wal.append")
    out["durability.wal.append_us"] = mean(self_s, calls, 1e6)
    out["durability.wal.bytes_per_op"] = mean(n, ops, 1)
    calls, total, _, _ = stat("durability.wal.sync")
    out["durability.wal.sync_ms"] = mean(total, calls, 1e3)
    out["durability.wal.syncs_per_op"] = mean(stat("durability.wal.fdatasync")[0], ops, 1)
    calls, total, _, _ = stat("durability.checkpoint.checkpoint")
    out["durability.checkpoint.checkpoint_ms"] = mean(total, calls, 1e3)
    out["durability.checkpoint.count"] = calls

    calls, total, _, n = stat("ha.ship.pump")
    out["ha.ship.pump_ms"] = mean(total, calls, 1e3)
    out["ha.ship.records_per_pump"] = mean(n, calls, 1)
    calls, total, _, _ = stat("ha.standby.feed")
    out["ha.standby.feed_us"] = mean(total, calls, 1e6)

    waits = [s.end - s.start for s in spans if s.name == "frontend.queue.wait"]
    out["frontend.queue.wait_ms"] = percentile(waits, 50) * 1e3 if waits else 0.0
    out["frontend.queue.depth_max"] = max(
        (s.n for s in spans if s.name == "frontend.queue.submit"), default=0
    )

    calls, total, _, n = stat("dataplane.parser.parse")
    out["dataplane.parser.parse_us_per_pkt"] = mean(total, n, 1e6)
    calls, total, _, n = stat("dataplane.parser.deparse")
    out["dataplane.parser.deparse_us_per_pkt"] = mean(total, n, 1e6)
    calls, _, self_s, _ = stat("fastpath.engine.process_batch")
    out["fastpath.engine.dispatch_self_ms_per_batch"] = mean(self_s, calls, 1e3)
    calls, total, _, _ = stat("fastpath.compiler.compile_chain")
    out["fastpath.compiler.compile_ms"] = mean(total, calls, 1e3)
    calls, total, _, n = stat("fastpath.kernels.run")
    out["fastpath.kernels.run_us_per_lane"] = mean(total, n, 1e6)
    out["fastpath.kernels.lanes_per_run"] = mean(n, calls, 1)
    calls, total, _, _ = stat("dataplane.pipeline.process")
    out["dataplane.pipeline.process_us_per_pkt"] = mean(total, calls, 1e6)

    layers: dict[str, float] = defaultdict(float)
    for s in spans:
        layers[layer_of(s.name)] += selfs[s.id]
    return out, dict(layers), selfs


def recovery_metrics(spans: list[Span], copies: int) -> dict:
    """Replay cost per record from the ``durability.recover.apply`` spans
    of the recovery phase (``copies`` recoveries of the same directory)."""
    applies = [s for s in spans if s.name == "durability.recover.apply"]
    total = sum(s.end - s.start for s in applies)
    return {
        "durability.recover.replay_us_per_record": total / len(applies) * 1e6 if applies else 0.0,
        "durability.recover.records_replayed": len(applies) / copies,
    }


def shares(layers: dict[str, float]) -> dict:
    """``budget.<layer>``: each catalogued layer's share of all layers'
    self time.  The load generator's own spans are nobody's layer."""
    total = sum(layers.get(layer, 0.0) for layer in BUDGET_LAYERS)
    return {
        f"budget.{layer}": layers.get(layer, 0.0) / total if total else 0.0
        for layer in BUDGET_LAYERS
    }


def unattributed(layers: dict[str, float], wall_s: float) -> float:
    """Share of a single-threaded window's wall that no layer's self time
    covers: the load generator's loop and anything left unwrapped."""
    total = sum(layers.get(layer, 0.0) for layer in BUDGET_LAYERS)
    return max(0.0, 1.0 - total / wall_s) if wall_s else 0.0
