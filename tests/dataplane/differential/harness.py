"""Generators and twin-table runner for the lookup differential tests.

Everything random is drawn from an explicit :class:`numpy.random.Generator`
(via :func:`repro.rng.make_rng`), so a failing case reproduces from its seed
alone.  Value pools are deliberately small and overlapping: packets must
collide with entries often enough that hits, ties, and LPM specificity
races are all exercised, not just misses.
"""

from __future__ import annotations

from repro.core.spec import SwitchSpec
from repro.dataplane.packet import Packet
from repro.dataplane.pipeline import SwitchPipeline
from repro.dataplane.runtime_api import OpType, RuntimeAPI, WriteOp
from repro.dataplane.table import (
    MatchActionTable,
    MatchField,
    MatchKind,
    TableEntry,
)
from repro.rng import make_rng

#: The SFP-shaped key: virtualization's (tenant, pass) exact prefix, then a
#: ternary, an LPM, a range, and another exact field — every match kind.
KEY = (
    MatchField("tenant_id", MatchKind.EXACT),
    MatchField("pass_id", MatchKind.EXACT),
    MatchField("src_ip", MatchKind.TERNARY),
    MatchField("dst_ip", MatchKind.LPM),
    MatchField("dst_port", MatchKind.RANGE),
    MatchField("protocol", MatchKind.EXACT),
)

#: Small overlapping pools so random entries/packets actually collide.
TENANTS = (1, 2, 3)
PASSES = (1, 2)
IP_BASES = (0x0A000000, 0x0A0A0000, 0xC0A80000)
TERNARY_MASKS = (0, 0xFF000000, 0xFFFF0000, 0xFFFFFFFF)
LPM_LENGTHS = (0, 8, 16, 24, 32)
PROTOCOLS = (6, 17)
ACTIONS = ("permit", "drop", "no_op")


def _ip(rng) -> int:
    return int(rng.choice(IP_BASES)) + int(rng.integers(0, 1 << 16))


def random_entry(rng) -> TableEntry:
    """One random rule over :data:`KEY`; each field independently present."""
    match: dict[str, object] = {}
    if rng.random() < 0.8:
        match["tenant_id"] = int(rng.choice(TENANTS))
    if rng.random() < 0.8:
        match["pass_id"] = int(rng.choice(PASSES))
    if rng.random() < 0.5:
        match["src_ip"] = (_ip(rng), int(rng.choice(TERNARY_MASKS)))
    if rng.random() < 0.5:
        match["dst_ip"] = (_ip(rng), int(rng.choice(LPM_LENGTHS)))
    if rng.random() < 0.4:
        lo = int(rng.integers(0, 1024))
        match["dst_port"] = (lo, lo + int(rng.integers(0, 1024)))
    if rng.random() < 0.4:
        match["protocol"] = int(rng.choice(PROTOCOLS))
    return TableEntry(
        match=match,
        action=str(rng.choice(ACTIONS)),
        params={"tag": int(rng.integers(0, 8))},
        priority=int(rng.integers(0, 4)),
    )


def random_packet(rng) -> Packet:
    """A packet drawn from the same pools the entries match on."""
    return Packet(
        tenant_id=int(rng.choice(TENANTS)),
        pass_id=int(rng.choice(PASSES)),
        src_ip=_ip(rng),
        dst_ip=_ip(rng),
        dst_port=int(rng.integers(0, 2048)),
        protocol=int(rng.choice(PROTOCOLS)),
    )


class TwinTables:
    """An indexed table and its linear-scan oracle, each alone in a
    one-stage pipeline and mutated in lockstep through identical
    :class:`RuntimeAPI` batches.

    Every entry object is shared by both tables, so agreement is checked by
    *identity*, the strictest possible form: the engines must pick the very
    same installed rule, not merely an equal-looking one.
    """

    def __init__(self, key=KEY, max_entries: int | None = None) -> None:
        self.fast = MatchActionTable("t", key=key, max_entries=max_entries)
        self.oracle = MatchActionTable(
            "t", key=key, max_entries=max_entries, indexed=False
        )
        self.apis = []
        for table in (self.fast, self.oracle):
            pipeline = SwitchPipeline(spec=SwitchSpec(stages=1))
            pipeline.stage(0).install_table(table)
            self.apis.append(RuntimeAPI(pipeline))
        self.live: list[TableEntry] = []

    # -- mirrored mutations ------------------------------------------------
    def write(self, ops: list[WriteOp]):
        fast, oracle = (api.write(ops) for api in self.apis)
        assert (fast.ok, fast.applied) == (oracle.ok, oracle.applied)
        return fast

    def insert(self, entry: TableEntry) -> None:
        self.insert_many([entry])

    def insert_many(self, entries) -> None:
        entries = list(entries)
        assert self.write([WriteOp(OpType.INSERT, "t", e) for e in entries]).ok
        self.live.extend(entries)

    def delete(self, entry: TableEntry) -> None:
        assert self.write([WriteOp(OpType.DELETE, "t", entry)]).ok
        self.live.remove(entry)

    def teardown(self, tenant: int) -> int:
        """Delete every rule of ``tenant``, one DELETE per rule, in one
        batch; returns the count."""
        victims = [e for e in self.live if e.match.get("tenant_id") == tenant]
        assert self.write([WriteOp(OpType.DELETE, "t", e) for e in victims]).ok
        self.live = [e for e in self.live if e.match.get("tenant_id") != tenant]
        return len(victims)

    def failed_batch_roundtrip(self, rng) -> None:
        """Delete some live rules, modify one, insert fresh ones, then fail
        the batch on a never-installed entry: both tables must come back
        with the same entries in the same order under the same rule ids."""
        before = [(e, self.fast.entry_id(e)) for e in self.fast.entries]
        ops = [
            WriteOp(OpType.DELETE, "t", e)
            for e in self.live if rng.random() < 0.3
        ]
        if self.live:
            victim = self.live[int(rng.integers(0, len(self.live)))]
            if all(op.entry is not victim for op in ops):
                ops.append(WriteOp(
                    OpType.MODIFY, "t", victim, replacement=random_entry(rng)
                ))
        ops += [WriteOp(OpType.INSERT, "t", random_entry(rng)) for _ in range(3)]
        never_installed = TableEntry(match={}, action="poison")
        ops.append(WriteOp(OpType.DELETE, "t", never_installed))
        assert not self.write(ops).ok
        for table in (self.fast, self.oracle):
            assert [(e, table.entry_id(e)) for e in table.entries] == before

    # -- the differential check --------------------------------------------
    def check_lookup(self, packet: Packet) -> None:
        fast_entry, fast_action, fast_params = self.fast.lookup(packet)
        ref_entry, ref_action, ref_params = self.oracle.lookup(packet)
        assert fast_entry is ref_entry, (
            f"winner divergence for {packet}:\n"
            f"  indexed -> {fast_entry}\n  oracle  -> {ref_entry}"
        )
        assert fast_action == ref_action
        assert fast_params == ref_params
        assert (self.fast.hits, self.fast.misses) == (
            self.oracle.hits,
            self.oracle.misses,
        ), "hit/miss counter divergence"

    def check_many(self, rng, num_packets: int) -> int:
        for _ in range(num_packets):
            self.check_lookup(random_packet(rng))
        return num_packets


def run_random_case(seed: int, num_entries: int = 24, num_packets: int = 20) -> int:
    """One self-contained differential case; returns lookups compared.

    Phase 1: bulk insert, lookups.  Phase 2: interleaved deletes/inserts
    with lookups after each mutation.  Phase 3: per-tenant teardown plus a
    rolled-back batch, then lookups.
    """
    rng = make_rng(seed)
    twins = TwinTables()
    compared = 0

    entries = [random_entry(rng) for _ in range(num_entries)]
    twins.insert_many(entries)
    compared += twins.check_many(rng, num_packets)

    for _ in range(num_entries // 2):
        if twins.live and rng.random() < 0.5:
            victim = twins.live[int(rng.integers(0, len(twins.live)))]
            twins.delete(victim)
        else:
            twins.insert(random_entry(rng))
        compared += twins.check_many(rng, 2)

    twins.teardown(int(rng.choice(TENANTS)))
    twins.failed_batch_roundtrip(rng)
    compared += twins.check_many(rng, num_packets)
    return compared
