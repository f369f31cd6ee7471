"""A stateful NF backed by a real switch extern.

The catalog's :class:`~repro.nfs.rate_limiter.RateLimiter` uses simplified
per-packet scratch state so its rules stay plain data.  This variant keeps
its token buckets in SRAM-resident extern state
(:class:`~repro.dataplane.registers.MeterArray`), and its rules bind the
extern by reference — the ``meter_police`` action the data plane and the
end-to-end benchmark's metered tenants exercise.

It is deliberately instance-scoped (one object per installed NF) rather
than a registry entry: extern bindings are runtime objects, not
serializable rule data.
"""

from __future__ import annotations

from repro.dataplane.registers import MeterArray
from repro.dataplane.table import MatchField, MatchKind, TableEntry
from repro.errors import DataPlaneError
from repro.nfs.base import NFDefinition
from repro.rng import make_rng


class MeteredRateLimiter(NFDefinition):
    """A rate limiter whose buckets live in a :class:`MeterArray`.

    ``slots`` aggregates (match rules) share the meter array; each generated
    rule polices one slot at ``committed_bps`` with 2x peak.
    """

    name = "metered_rate_limiter"
    type_id = 5  # same catalog slot as the stateless limiter

    def __init__(
        self,
        slots: int = 64,
        committed_bps: float = 1e9,
        burst_bytes: float = 32_000.0,
    ) -> None:
        if slots < 1:
            raise DataPlaneError("need at least one meter slot")
        self.slots = slots
        self.meter = MeterArray(
            f"{self.name}_meter",
            size=slots,
            committed_bps=committed_bps,
            burst_bytes=burst_bytes,
        )

    def match_fields(self) -> list[MatchField]:
        return [
            MatchField("src_ip", MatchKind.TERNARY),
            MatchField("protocol", MatchKind.EXACT),
        ]

    def generate_rules(self, rng, count: int) -> list[TableEntry]:
        rng = make_rng(rng)
        rules: list[TableEntry] = []
        for i in range(count):
            src = int(0x0A000000 + rng.integers(0, 2**24))
            rules.append(
                TableEntry(
                    match={"src_ip": (src, 0xFFFFFF00), "protocol": 6},
                    action="meter_police",
                    params={"meter": self.meter, "index": i % self.slots},
                )
            )
        return rules
