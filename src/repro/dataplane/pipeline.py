"""The multi-pass switch pipeline.

Processing semantics (paper §IV): a packet enters at pass 1 and traverses all
stages in order; if any matched rule carried the REC argument, the packet is
recirculated — ``pass_id`` is incremented and the packet re-enters at stage
0 — up to ``max_passes`` total traversals.  Virtualized rules match on
``(tenant_id, pass_id)``, so each pass executes a different slice of the
tenant's folded SFC.
"""

from __future__ import annotations

from repro.core.spec import SwitchSpec
from repro.dataplane.action import ActionRegistry, default_actions
from repro.dataplane.latency import AsicModel
from repro.dataplane.packet import Packet, PacketResult
from repro.dataplane.resources import StageResources
from repro.dataplane.stage import Stage
from repro.errors import DataPlaneError
from repro.telemetry.postcards import PacketPostcard, PostcardCollector


class SwitchPipeline:
    """A programmable ingress pipeline of ``num_stages`` MAUs."""

    def __init__(
        self,
        spec: SwitchSpec | None = None,
        max_passes: int = 4,
        actions: ActionRegistry | None = None,
        latency_model: AsicModel | None = None,
        name: str = "switch",
    ) -> None:
        self.spec = spec if spec is not None else SwitchSpec()
        #: Label distinguishing this pipeline when several run side by side
        #: (the fabric orchestrator instantiates one per fabric switch).
        self.name = name
        if max_passes < 1:
            raise DataPlaneError("max_passes must be >= 1")
        self.max_passes = max_passes
        self.actions = actions if actions is not None else default_actions()
        self.latency_model = (
            latency_model if latency_model is not None else AsicModel.from_spec(self.spec)
        )
        #: Bumped whenever the set (or order) of resident tables changes
        #: anywhere in the pipeline — the coarse invalidation key the compiled
        #: fast path checks before trusting its table walk.
        self.structure_generation = 0
        self.stages = [
            Stage(
                index=s,
                resources=StageResources(
                    blocks_total=self.spec.blocks_per_stage,
                    entries_per_block=self.spec.entries_per_block,
                ),
                owner=self,
            )
            for s in range(self.spec.stages)
        ]
        #: Packets that exhausted max_passes while still asking to recirculate.
        self.recirculation_overflows = 0
        #: Opt-in INT-style telemetry: attach a
        #: :class:`~repro.telemetry.postcards.PostcardCollector` and every
        #: 1-in-N packet accumulates a per-hop postcard (``None`` = off; the
        #: cost of the disabled hook is one branch per packet).
        self.telemetry: PostcardCollector | None = None
        #: Opt-in compiled fast path: attach a
        #: :class:`~repro.fastpath.engine.FastPathEngine` (via
        #: ``FastPathEngine.attach(pipeline)``) and :meth:`process_batch`
        #: executes each batch as one run of the columnar kernel over the
        #: tenants' compiled rule blocks, with the interpreter below kept as
        #: the differential oracle (``None`` = every batch takes the
        #: interpreted path).
        self.fastpath = None

    @property
    def num_stages(self) -> int:
        return len(self.stages)

    def stage(self, index: int) -> Stage:
        """The MAU at ``index``; raises on out-of-range indices."""
        if not 0 <= index < self.num_stages:
            raise DataPlaneError(f"stage index {index} outside [0, {self.num_stages})")
        return self.stages[index]

    def find_table(self, name: str) -> tuple[Stage, "object"]:
        """Locate a table by name anywhere in the pipeline."""
        for stage in self.stages:
            for table in stage.tables:
                if table.name == name:
                    return stage, table
        raise DataPlaneError(f"no table named {name!r} in the pipeline")

    # ------------------------------------------------------------------
    def process(
        self,
        packet: Packet,
        trace: bool = False,
        _sampled: bool | None = None,
    ) -> PacketResult:
        """Push one packet through the pipeline (with recirculation).

        ``trace=True`` forces a full per-hop postcard (the legacy trace
        rows on the result are derived from it); independently, an attached
        :attr:`telemetry` collector samples 1-in-N packets into postcards
        of its own.  Either way the card rides on ``result.postcard``.

        ``_sampled`` pre-decides the telemetry sampling draw: the fast-path
        engine reserves the collector's counter range for a whole batch up
        front (one lock instead of one per packet) and routes the sampled
        packets here with their decision already made — passing it skips
        the per-packet ``should_sample`` counter advance.
        """
        collector = self.telemetry
        if _sampled is None:
            sampled = collector is not None and collector.should_sample()
        else:
            sampled = _sampled
        card: PacketPostcard | None = None
        if trace or sampled:
            card = PacketPostcard(
                switch=self.name,
                tenant_id=packet.tenant_id,
                stage_ns=self.latency_model.stage_ns,
            )
        passes = 0
        while True:
            passes += 1
            packet.recirculate = False
            for stage in self.stages:
                if packet.dropped:
                    break
                stage.apply(packet, self.actions, packet.pass_id, card=card)
            if packet.dropped or not packet.recirculate:
                break
            if passes >= self.max_passes:
                self.recirculation_overflows += 1
                break
            # End-of-pipeline recirculation: REC consumed, pass counter bumped.
            packet.pass_id += 1
        result = PacketResult(packet, passes, [], self.latency_model.latency_ns(passes=passes))
        if card is not None:
            card.finish(
                passes=passes, latency_ns=result.latency_ns,
                dropped=packet.dropped,
            )
            result.postcard = card
            if trace:
                result.trace = card.trace_rows()
            if sampled:
                collector.record(card)
        return result

    def process_batch(self, packets: list[Packet], trace: bool = False) -> list[PacketResult]:
        """Process packets independently (the functional model has no
        cross-packet contention; throughput is the latency model's job).

        With a :attr:`fastpath` engine attached the batch executes on the
        columnar kernel over compiled rule blocks; otherwise — and for
        any packet the engine cannot or must not compile — the interpreted
        walk below runs, making it the always-available differential
        oracle for the compiled path.
        """
        if self.fastpath is not None:
            return self.fastpath.process_batch(packets, trace=trace)
        return self.process_batch_interpreted(packets, trace=trace)

    def process_batch_interpreted(
        self, packets: list[Packet], trace: bool = False
    ) -> list[PacketResult]:
        """The reference per-packet interpreter over a batch (the oracle
        the compiled fast path is differentially tested against)."""
        return [self.process(p, trace=trace) for p in packets]

    # ------------------------------------------------------------------
    def total_entries(self) -> int:
        """Rule entries installed across all stages' tables."""
        return sum(t.num_entries for s in self.stages for t in s.tables)

    def blocks_used_by_stage(self) -> list[int]:
        """SRAM blocks in use per stage (boot reserves + rule growth)."""
        return [s.resources.blocks_used for s in self.stages]

    def __repr__(self) -> str:
        return (
            f"SwitchPipeline({self.name!r}, stages={self.num_stages}, "
            f"max_passes={self.max_passes}, "
            f"tables={sum(len(s.tables) for s in self.stages)})"
        )
