"""Differential tests: the compiled fast path vs the interpreter oracle.

Every test builds the *same* workload twice — one pipeline left on the
interpreter, one with a :class:`FastPathEngine` attached — pushes the same
packets through both, and asserts bit-identity: every header field,
``pass_id``/``recirculate``/``dropped``/``egress_port``, the modeled
latency, per-table hit/miss counters, recirculation overflows, and (when
sampling) the postcard stream.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataplane.pipeline import SwitchPipeline
from repro.dataplane.runtime_api import RuntimeAPI
from repro.dataplane.table import (
    MatchActionTable,
    MatchField,
    MatchKind,
    TableEntry,
)
from repro.dataplane.virtualization import LogicalNF, LogicalSFC, SFCVirtualizer
from repro.core.spec import SwitchSpec
from repro.fastpath import FastPathEngine
from repro.nfs import get_nf, install_physical_nf
from repro.rng import make_rng
from repro.telemetry import PostcardCollector
from repro.traffic.flows import FlowGenerator

CHAIN = ("firewall", "traffic_classifier", "load_balancer", "router")
TENANTS = (1, 2, 3)


#: Broad low-priority rules guaranteeing hits (generated NF rules match
#: narrow address slices, so random flows rarely hit them): the classifier
#: catch-all is what carries REC when the chain folds, and the router one
#: gives recirculated packets a deterministic egress.
CATCH_ALLS = {
    "traffic_classifier": TableEntry(
        match={"src_ip": (0, 0), "dst_port": (0, 65535), "protocol": 6},
        action="set_dscp", params={"dscp": 10}, priority=0,
    ),
    "router": TableEntry(
        match={"dst_ip": (0, 0)}, action="forward", params={"port": 1},
        priority=0,
    ),
}


def build_pipeline(stages: int = 4, rules_per_nf: int = 24, seed: int = 7):
    """``len(TENANTS)`` virtualized Fig. 4 chains.  With ``stages=4`` each
    chain runs in one pass; with ``stages=2`` the §IV first-fit walk folds
    it across two passes, so recirculation is exercised end to end."""
    rng = make_rng(seed)
    pipeline = SwitchPipeline(
        spec=SwitchSpec(stages=stages, blocks_per_stage=64), max_passes=4
    )
    for i, name in enumerate(CHAIN):
        install_physical_nf(pipeline, name, i % stages)
    virtualizer = SFCVirtualizer(pipeline)
    for tenant_id in TENANTS:
        nfs = []
        for name in CHAIN:
            rules = list(get_nf(name).generate_rules(rng, rules_per_nf))
            if name in CATCH_ALLS:
                rules.append(CATCH_ALLS[name])
            nfs.append(LogicalNF(nf_name=name, rules=tuple(rules)))
        virtualizer.install_sfc(LogicalSFC(tenant_id=tenant_id, nfs=tuple(nfs)))
    return pipeline


def make_batch(num_per_tenant: int, seed: int = 3):
    batch = []
    for tenant_id in TENANTS:
        gen = FlowGenerator(seed + tenant_id)
        flows = gen.flows(8, tenant_id=tenant_id)
        batch.extend(gen.packets(flows, num_per_tenant, size_bytes=64))
    return batch


def result_key(r):
    p = r.packet
    return (
        p.tenant_id, p.src_ip, p.dst_ip, p.src_port, p.dst_port,
        p.protocol, p.dscp, p.pass_id, p.recirculate, p.dropped,
        p.egress_port, r.passes, r.latency_ns, p.scratch,
    )


def table_counters(pipeline):
    return [
        (t.name, t.hits, t.misses)
        for s in pipeline.stages
        for t in s.tables
    ]


def assert_identical(ref_pipeline, got_pipeline, ref_results, got_results):
    assert len(ref_results) == len(got_results)
    for a, b in zip(ref_results, got_results):
        assert result_key(a) == result_key(b)
    assert table_counters(ref_pipeline) == table_counters(got_pipeline)
    assert (
        ref_pipeline.recirculation_overflows
        == got_pipeline.recirculation_overflows
    )


def test_single_pass_chains_bit_identical():
    """500+ packets (per the three tenants together, >170 each) through
    the 4-stage single-pass layout."""
    ref = build_pipeline(stages=4)
    got = build_pipeline(stages=4)
    engine = FastPathEngine.attach(got)
    ref_results = ref.process_batch(make_batch(180))
    got_results = got.process_batch(make_batch(180))
    assert len(got_results) == 540
    assert_identical(ref, got, ref_results, got_results)
    assert engine.stats["compiled_packets"] == 540
    assert engine.stats["interpreted_packets"] == 0


def test_folded_chains_recirculate_identically():
    """On a 2-stage pipeline the 4-NF chain folds across two passes; the
    static recirculation plan must replay the interpreter exactly."""
    ref = build_pipeline(stages=2)
    got = build_pipeline(stages=2)
    FastPathEngine.attach(got)
    ref_results = ref.process_batch(make_batch(180))
    got_results = got.process_batch(make_batch(180))
    assert any(r.passes > 1 for r in ref_results), "workload never folded"
    assert_identical(ref, got, ref_results, got_results)


def test_recirculation_overflow_counted_identically():
    """A rule that recirculates on every pass overflows the budget; the
    kernels must freeze state and bump the counter like the interpreter."""

    def build():
        pl = SwitchPipeline(
            spec=SwitchSpec(stages=1, blocks_per_stage=4), max_passes=3
        )
        t = MatchActionTable(
            "spin",
            key=[
                MatchField("tenant_id", MatchKind.EXACT),
                MatchField("dst_port", MatchKind.RANGE),
            ],
        )
        t.insert(TableEntry(
            match={"tenant_id": 1, "dst_port": (0, 40000)},
            action="no_op", params={"rec": True},
        ))
        pl.stage(0).install_table(t)
        return pl

    ref, got = build(), build()
    FastPathEngine.attach(got)
    gen = FlowGenerator(5)
    flows = gen.flows(8, tenant_id=1)
    ref_results = ref.process_batch(gen.packets(flows, 64, size_bytes=64))
    gen = FlowGenerator(5)
    flows = gen.flows(8, tenant_id=1)
    got_results = got.process_batch(gen.packets(flows, 64, size_bytes=64))
    assert ref.recirculation_overflows > 0
    assert_identical(ref, got, ref_results, got_results)
    assert all(
        r.passes == 3 for r in got_results if r.packet.dst_port <= 40000
    )


def test_rule_churn_between_batches_stays_identical():
    """Admit-style churn through RuntimeAPI between batches: the engine
    must invalidate exactly the written tenant and keep matching the
    oracle afterwards."""
    ref = build_pipeline(stages=4)
    got = build_pipeline(stages=4)
    engine = FastPathEngine.attach(got)

    assert_identical(
        ref, got,
        ref.process_batch(make_batch(64)),
        got.process_batch(make_batch(64)),
    )
    cached_before = engine.cached_plans
    assert cached_before == len(TENANTS)

    # Flip one tenant-1 firewall rule to a drop via both RuntimeAPIs.
    for pipeline in (ref, got):
        api = RuntimeAPI(pipeline)
        entries = [
            e for e in pipeline.stage(0).table("firewall@s0").entries
            if e.match.get("tenant_id") == 1
        ]
        victim = entries[0]
        replacement = TableEntry(
            match=victim.match, action="drop", params={},
            priority=victim.priority,
        )
        assert api.modify("firewall@s0", victim, replacement).ok

    compiles_before = engine.stats["compiles"]
    assert_identical(
        ref, got,
        ref.process_batch(make_batch(64, seed=11)),
        got.process_batch(make_batch(64, seed=11)),
    )
    # Only tenant 1 recompiled; tenants 2 and 3 kept their plans.
    assert engine.stats["compiles"] == compiles_before + 1


def test_postcards_bit_identical_under_sampling():
    """1-in-N sampled postcards out of the fast path must be the exact
    cards (and counters) the pure interpreter would emit."""
    ref = build_pipeline(stages=2)
    got = build_pipeline(stages=2)
    ref.telemetry = PostcardCollector(sample_every=7, capacity=4096)
    got.telemetry = PostcardCollector(sample_every=7, capacity=4096)
    engine = FastPathEngine.attach(got)

    for seed in (3, 9):  # two batches: the counter must carry across
        ref_results = ref.process_batch(make_batch(70, seed=seed))
        got_results = got.process_batch(make_batch(70, seed=seed))
        assert_identical(ref, got, ref_results, got_results)

    assert ref.telemetry.snapshot() == got.telemetry.snapshot()
    ref_cards = [c.to_dict() for c in ref.telemetry.cards]
    got_cards = [c.to_dict() for c in got.telemetry.cards]
    assert ref_cards == got_cards
    assert got.telemetry.postcards_sampled > 0
    # Sampled packets really did take the oracle.
    assert engine.stats["interpreted_packets"] == got.telemetry.postcards_sampled


def test_trace_requests_route_to_interpreter():
    """``trace=True`` batches must produce interpreter postcards."""
    ref = build_pipeline(stages=2)
    got = build_pipeline(stages=2)
    FastPathEngine.attach(got)
    ref_results = ref.process_batch(make_batch(8), trace=True)
    got_results = got.process_batch(make_batch(8), trace=True)
    assert_identical(ref, got, ref_results, got_results)
    for a, b in zip(ref_results, got_results):
        assert a.postcard is not None and b.postcard is not None
        assert a.postcard.to_dict() == b.postcard.to_dict()


def test_scalar_state_actions_stay_identical():
    """``count``/``rate_limit`` mutate per-packet scratch state (token
    buckets, counters) and can drop or recirculate; the kernels call the
    real registered functions, so scratch, drops and REC must all match
    the oracle exactly (``result_key`` includes ``scratch``)."""

    def build():
        pl = SwitchPipeline(
            spec=SwitchSpec(stages=1, blocks_per_stage=4), max_passes=4
        )
        t = MatchActionTable(
            "limiter",
            key=[
                MatchField("tenant_id", MatchKind.EXACT),
                MatchField("dst_port", MatchKind.RANGE),
            ],
        )
        # Recirculates while charging a 2-token bucket: pass 3 finds the
        # bucket empty and drops mid-flight.
        t.insert(TableEntry(
            match={"tenant_id": 1, "dst_port": (101, 65535)},
            action="rate_limit", params={"burst": 2, "rec": True},
        ))
        t.insert(TableEntry(
            match={"tenant_id": 1, "dst_port": (0, 100)},
            action="count", params={"counter": "lo_ports"},
        ))
        pl.stage(0).install_table(t)
        return pl

    ref, got = build(), build()
    FastPathEngine.attach(got)
    gen = FlowGenerator(4)
    flows = gen.flows(16, tenant_id=1)
    ref_results = ref.process_batch(gen.packets(flows, 200, size_bytes=64))
    gen = FlowGenerator(4)
    flows = gen.flows(16, tenant_id=1)
    got_results = got.process_batch(gen.packets(flows, 200, size_bytes=64))
    assert any(r.packet.dropped for r in ref_results), "limiter never fired"
    assert any(
        r.packet.scratch.get("_counters") for r in ref_results
    ), "counter never fired"
    assert_identical(ref, got, ref_results, got_results)


# ----------------------------------------------------------------------
# Many tenants in one kernel run (tenant id is a lane column)
# ----------------------------------------------------------------------
class _TwinFleet:
    """The same many-tenant switch twice — interpreter and fast path —
    driven in lockstep and compared after every step."""

    def __init__(self, tenants: int) -> None:
        from tests.dataplane.differential.fleet import Fleet

        self.ref = Fleet(tenants, fastpath=False)
        self.got = Fleet(tenants, fastpath=True)
        for side in (self.ref, self.got):
            side.pipeline.telemetry = PostcardCollector(sample_every=5, capacity=8192)
        #: An ID with nothing installed (until the direct install below).
        self.lanes = self.ref.tenant_ids + [500]

    def both(self, op):
        return [op(side) for side in (self.ref, self.got)]

    def check(self, seed: int, per_flow: int = 3):
        from tests.dataplane.differential.fleet import make_batch

        ref_results = self.ref.pipeline.process_batch_interpreted(
            make_batch(self.lanes, per_flow, seed)
        )
        got_results = self.got.pipeline.process_batch(
            make_batch(self.lanes, per_flow, seed)
        )
        assert_identical(self.ref.pipeline, self.got.pipeline, ref_results, got_results)
        ref_t, got_t = self.ref.pipeline.telemetry, self.got.pipeline.telemetry
        assert ref_t.snapshot() == got_t.snapshot()
        assert [c.to_dict() for c in ref_t.cards] == [c.to_dict() for c in got_t.cards]
        assert self.ref.counters.packets.tolist() == self.got.counters.packets.tolist()
        assert self.ref.counters.bytes.tolist() == self.got.counters.bytes.tolist()
        return ref_results


def test_many_tenants_interleaved_in_one_batch():
    """18 tenants of six kinds (straight, folded, rules in one table only,
    pass-2-only rules, an interpreter-fallback tenant, a ``count_extern``
    tenant) plus an unknown ID, lanes interleaved, through every way the
    tables get written — bit-identical to the interpreter at each step."""
    from repro.dataplane.runtime_api import OpType, WriteOp
    from tests.dataplane.differential.fleet import flows_of, sfc_of

    twin = _TwinFleet(18)
    engine = twin.got.engine
    runs = []
    real_run = engine.kernel.run
    engine.kernel.run = lambda *args: runs.append(len(args[1])) or real_run(*args)

    results = twin.check(seed=1)
    assert any(r.passes > 1 for r in results), "nothing recirculated"
    assert any(r.packet.dropped for r in results), "no firewall ever denied"
    assert twin.ref.counters.packets.sum() > 0, "count_extern never fired"
    assert engine.stats["fallback_packets"] > 0
    # One kernel run for the whole batch, 16 tenants' lanes in it.
    assert runs == [engine.stats["compiled_packets"]] and runs[0] > 100

    # A RuntimeAPI write: flip a straight tenant's first firewall rule.
    def flip(side):
        api = side.controller.installer.api
        victim = side.pipeline.stage(0).table("firewall@s0").partition(
            side.wire_id(1)
        )[0][1]
        replacement = TableEntry(
            match=victim.match, action="drop", params={}, priority=victim.priority
        )
        assert api.modify("firewall@s0", victim, replacement).ok

    twin.both(flip)
    compiles = engine.stats["compiles"]
    results = twin.check(seed=2)
    assert engine.stats["compiles"] == compiles + 1  # tenant 1, nobody else

    # Make-before-break: a straight tenant becomes a folded one, with the
    # tenant's traffic pushed through between the phases.
    between = [[], []]

    def modify(side, seen):
        def on_batch(phase, _result):
            packets = [f.make_packet(64) for f in flows_of(7) for _ in range(2)]
            seen.extend(
                (phase,) + result_key(r) for r in side.pipeline.process_batch(packets)
            )

        side.controller.installer.on_batch = on_batch
        assert side.controller.modify(7, sfc_of(7, "folded")).ok
        side.controller.installer.on_batch = None

    modify(twin.ref, between[0])
    modify(twin.got, between[1])
    assert between[0] == between[1] and len(between[0]) == 3 * 8
    twin.check(seed=3)

    # The bench's write: evict two tenants and admit them again.
    twin.both(lambda side: [side.rewrite(t) for t in (4, 11)])
    twin.check(seed=4)

    # A rolled-back batch: nothing changed; only the tenant whose partition
    # it wrote (and restored) recompiles.
    def poisoned(side):
        api = side.controller.installer.api
        result = api.write([
            WriteOp(OpType.INSERT, "router@s3", TableEntry(
                match={"tenant_id": side.wire_id(2), "pass_id": 1,
                       "dst_ip": (0, 0)},
                action="drop", priority=999,
            )),
            WriteOp(OpType.DELETE, "router@s3", TableEntry(match={}, action="no_op")),
        ])
        assert not result.ok

    twin.check(seed=5)
    compiles = engine.stats["compiles"]
    twin.both(poisoned)
    twin.check(seed=5)
    assert engine.stats["compiles"] == compiles + 1

    # A direct virtualizer install, behind RuntimeAPI's back, under the ID
    # whose lanes have been missing everywhere so far.
    def install(side):
        nfs = tuple(
            LogicalNF(nf_name=name, rules=(CATCH_ALLS[name],))
            for name in ("traffic_classifier", "router")
        )
        SFCVirtualizer(side.pipeline).install_sfc(LogicalSFC(tenant_id=500, nfs=nfs))

    twin.both(install)
    results = twin.check(seed=6)
    assert any(
        r.packet.tenant_id == 500 and r.packet.egress_port == 1 for r in results
    )
    # One run per process_batch call to the end (7 checks + 3 mid-modify).
    assert len(runs) == engine.stats["batches"] == 10


def test_unrelated_rewrite_recompiles_only_the_rewritten_tenants():
    """Negative verdicts are as precise as positive ones: with metered
    (fallback) tenants resident, an evict + admit of two other tenants
    costs exactly two compiles at the next batch."""
    from tests.dataplane.differential.fleet import Fleet, kind_of, make_batch

    fleet = Fleet(18, fastpath=True)
    metered = [t for t in fleet.tenant_ids if kind_of(t) == "metered"]
    assert len(metered) == 3
    fleet.pipeline.process_batch(make_batch(fleet.tenant_ids, 1, seed=1))
    engine = fleet.engine
    compiles = engine.stats["compiles"]
    assert compiles == len(fleet.tenant_ids)
    for tenant_id in (1, 2):  # a straight and a folded tenant
        fleet.rewrite(tenant_id)
    fleet.pipeline.process_batch(make_batch(fleet.tenant_ids, 1, seed=2))
    assert engine.stats["compiles"] == compiles + 2
    # Rewriting a metered tenant re-analyses that tenant alone.
    fleet.rewrite(metered[0])
    fleet.pipeline.process_batch(make_batch(fleet.tenant_ids, 1, seed=3))
    assert engine.stats["compiles"] == compiles + 3
    assert engine.plan_for(metered[0]).fallback_reason is not None


def _random_rule(rng):
    """A rule over the harness's every-match-kind key with an action the
    kernel has a distinct code path for."""
    from tests.dataplane.differential.harness import TENANTS, random_entry

    base = random_entry(rng)
    action, params = [
        ("permit", {}),
        ("drop", {}),
        ("no_op", {"rec": True}),
        ("set_dscp", {"dscp": int(rng.integers(0, 64))}),
        ("set_dscp", {"dscp": int(rng.integers(0, 64)), "rec": True}),
        ("set_tenant", {"wire_id": int(rng.choice(TENANTS))}),
        ("count", {"counter": "c"}),
        ("rate_limit", {"burst": 1, "rec": True}),
    ][int(rng.integers(0, 8))]
    return TableEntry(
        match=base.match, action=action, params=params, priority=base.priority
    )


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_random_tables_tenants_and_batches_stay_identical(seed):
    """Random shared/own-partition rules of every match kind (wildcard
    tenants and passes included), ``set_tenant`` anywhere, two tables in
    one stage, direct mutations between batches."""
    from tests.dataplane.differential.harness import KEY, random_packet

    rng = make_rng(seed)
    rules = [[_random_rule(rng) for _ in range(int(rng.integers(0, 14)))] for _ in "ab"]
    extra = [_random_rule(rng) for _ in range(4)]

    def build():
        pl = SwitchPipeline(spec=SwitchSpec(stages=1, blocks_per_stage=8), max_passes=3)
        for name, entries in zip("ab", rules):
            t = MatchActionTable(name, key=KEY)
            t.insert_many(entries)
            pl.stage(0).install_table(t)
        return pl

    ref, got = build(), build()
    FastPathEngine.attach(got)
    for step in range(3):
        batch_seed = int(rng.integers(0, 2**31))
        batches = []
        for _side in range(2):
            batch_rng = make_rng(batch_seed)
            packets = [random_packet(batch_rng) for _ in range(24)]
            for p in packets:
                p.pass_id = 1
            batches.append(packets)
        assert_identical(
            ref, got,
            ref.process_batch_interpreted(batches[0]),
            got.process_batch(batches[1]),
        )
        for pl in (ref, got):
            table = pl.stage(0).table("ab"[step % 2])
            table.insert(extra[step])
            if table.num_entries > 2:
                table.delete(table.entries[1])
