"""Packet-path workloads: wire bytes -> parse -> fast path -> deparse.

``pkt_bulk`` and ``pkt_mixed`` share this file and differ only in their
:class:`PktConfig`.  Tenants are installed through ``SfcController`` with a
rule factory whose rules are keyed onto the tenant's own flows, so table
lookups hit and actions run (the legacy dataplane bench hit nothing).
"""

from __future__ import annotations

import os
import resource
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from repro.controller.controller import SfcController
from repro.core.spec import SFC, ProblemInstance, SwitchSpec
from repro.dataplane.parser import (
    build_frame,
    build_vxlan_frame,
    deparse_packet,
    parse_packet,
)
from repro.dataplane.table import TableEntry
from repro.durability import ControllerDurability, recover_controller
from repro.errors import DataPlaneError
from repro.nfs import get_nf
from repro.nfs.stateful import MeteredRateLimiter
from repro.traffic.distributions import PacketSizeMix
from repro.traffic.flows import FlowGenerator

import spans as spans_mod
from base import Workload, timed_recoveries
from quantiles import percentile, steady_rate, tail_percentile

FIREWALL, LOAD_BALANCER, CLASSIFIER, ROUTER, RATE_LIMITER = 1, 2, 3, 4, 5

#: The Fig. 4 chain, one pass on a 4-stage switch.
STRAIGHT = (FIREWALL, CLASSIFIER, LOAD_BALANCER, ROUTER)
#: Same NFs in an order the resident physical tables serve only in 2 passes.
FOLDED = (LOAD_BALANCER, ROUTER, FIREWALL, CLASSIFIER)
#: ``meter_police`` is order- and time-dependent, so the chain compiler
#: refuses it and the tenant's lanes fall back to the interpreter.
METERED = (FIREWALL, CLASSIFIER, RATE_LIMITER, ROUTER)

SWITCH = SwitchSpec(stages=4, blocks_per_stage=24, capacity_gbps=400.0)
TENANT_GBPS = 1.0
#: Lanes of a sampled batch replayed through the interpreter oracle.
ORACLE_LANES = 256
ORACLE_SAMPLES = 8
#: Writes journalled after the window and a checkpoint, so that every run
#: leaves recovery the same journal.
TAIL_WRITES = 24


@dataclass(frozen=True)
class PktConfig:
    name: str
    tenants: int
    batch: int
    flows_per_tenant: int = 8
    rules_per_nf: int = 64
    #: Every n-th tenant gets the folded / metered chain (0 = none).
    folded_every: int = 0
    metered_every: int = 0
    #: Odd flows of every tenant arrive VxLAN-encapsulated.
    vxlan: bool = False
    size_mix: bool = False
    #: Before every n-th batch (0 = never), evict ``write_tenants`` tenants
    #: and admit them again.
    write_every: int = 0
    write_tenants: int = 2
    #: Odd, so that batches sampled at a power-of-two stride visit them all.
    distinct_batches: int = 7
    tail_pct: float = 90.0
    #: What a correct run of this workload must show (checked after timing).
    min_hit_share: float = 0.0
    min_passes_per_pkt: float = 0.0
    fastpath_share: tuple[float, float] = (0.0, 1.0)

    def to_dict(self) -> dict:
        return dict(self.__dict__)


PKT_BULK = PktConfig("pkt_bulk", tenants=8, batch=4096, min_hit_share=0.9)
PKT_MIXED = PktConfig(
    "pkt_mixed", tenants=64, batch=512, folded_every=4, metered_every=11,
    vxlan=True, size_mix=True, write_every=4,
    min_passes_per_pkt=1.2, fastpath_share=(0.90, 0.97),
)


@dataclass
class Tenant:
    sfc: SFC
    flows: list
    #: position -> crafted rule specs ``(match, action, params)`` that the
    #: tenant's flows hit, given what earlier NFs rewrote.
    crafted: dict[int, list[tuple[dict, str, dict]]]


def make_tenants(cfg: PktConfig, seed: int) -> list[Tenant]:
    """The tenant population for ``seed``: chains, flows and the rules that
    match those flows at each NF."""
    tenants = []
    for index in range(cfg.tenants):
        tenant_id = index + 1
        # Tenant 1 is straight, so the physical tables land in Fig. 4 order;
        # metered tenants take slots the folded ones do not use.
        if cfg.metered_every and index % cfg.metered_every == 1:
            chain = METERED
        elif cfg.folded_every and index % cfg.folded_every == cfg.folded_every - 1:
            chain = FOLDED
        else:
            chain = STRAIGHT
        flows = FlowGenerator(seed * 1000 + tenant_id).flows(
            cfg.flows_per_tenant, tenant_id=tenant_id
        )
        sfc = SFC(
            name=f"{cfg.name}-{tenant_id}",
            nf_types=chain,
            rules=(cfg.rules_per_nf,) * len(chain),
            bandwidth_gbps=TENANT_GBPS,
            tenant_id=tenant_id,
        )
        tenants.append(Tenant(sfc, flows, _craft_rules(chain, flows, seed + tenant_id)))
    return tenants


def _craft_rules(chain, flows, seed: int) -> dict[int, list[tuple[dict, str, dict]]]:
    """Walk each flow down the chain, emitting at every NF one rule on that
    NF's match fields that the flow hits in its current (rewritten) form.
    The last flow is denied by the firewall; the rest are permitted."""
    rng = np.random.default_rng(seed)
    crafted: dict[int, list] = {position: [] for position in range(len(chain))}
    full = 0xFFFFFFFF
    for index, flow in enumerate(flows):
        dst_ip, dst_port = flow.dst_ip, flow.dst_port
        for position, nf in enumerate(chain):
            if nf == FIREWALL:
                deny = index == len(flows) - 1
                crafted[position].append((
                    {"src_ip": (flow.src_ip, full), "dst_ip": (dst_ip, full),
                     "dst_port": (dst_port, dst_port), "protocol": flow.protocol},
                    "drop" if deny else "permit", {},
                ))
                if deny:
                    break
            elif nf == CLASSIFIER:
                crafted[position].append((
                    {"src_ip": (flow.src_ip & 0xFFFFFF00, 0xFFFFFF00),
                     "dst_port": (dst_port, dst_port), "protocol": flow.protocol},
                    "set_dscp", {"dscp": int(rng.integers(1, 64))},
                ))
            elif nf == LOAD_BALANCER:
                backend = int(0x0AC80000 + rng.integers(0, 2**14))
                crafted[position].append((
                    {"dst_ip": dst_ip, "dst_port": dst_port, "protocol": flow.protocol},
                    "set_dst", {"dst_ip": backend, "dst_port": 8080},
                ))
                dst_ip, dst_port = backend, 8080
            elif nf == ROUTER:
                crafted[position].append((
                    {"dst_ip": (dst_ip & 0xFFFFFF00, 24)},
                    "forward", {"port": int(rng.integers(0, 32))},
                ))
            elif nf == RATE_LIMITER:
                crafted[position].append((
                    {"src_ip": (flow.src_ip & 0xFFFFFF00, 0xFFFFFF00),
                     "protocol": flow.protocol},
                    "meter_police", {"index": index},
                ))
    return crafted


def _materialize(cfg: PktConfig, tenant: Tenant, seed: int) -> dict[int, tuple[TableEntry, ...]]:
    """Concrete table entries for one controller: the crafted rules at high
    priority plus seeded filler up to ``rules_per_nf``.  Each call makes
    its own meter, so the system under test and the oracle share no state."""
    # A bucket this deep never empties, so every packet is GREEN and the
    # oracle agrees whatever subset of the traffic it replays.
    limiter = MeteredRateLimiter(slots=cfg.rules_per_nf, burst_bytes=1e15)
    out = {}
    for position, type_id in enumerate(tenant.sfc.nf_types):
        entries = []
        for match, action, params in tenant.crafted[position]:
            if action == "meter_police":
                params = {"meter": limiter.meter, **params}
            entries.append(TableEntry(match=match, action=action, params=params, priority=100))
        source = limiter if type_id == RATE_LIMITER else get_nf(type_id)
        filler_seed = seed * 100_003 + tenant.sfc.tenant_id * 101 + position
        entries.extend(source.generate_rules(filler_seed, cfg.rules_per_nf - len(entries)))
        out[position] = tuple(entries)
    return out


def build_controller(cfg: PktConfig, tenants, seed: int, fastpath: bool, wal_dir=None):
    """A one-switch controller with every tenant admitted.  Returns
    ``(controller, admits_ok)``."""
    rules = {t.sfc.tenant_id: _materialize(cfg, t, seed) for t in tenants}
    instance = ProblemInstance(
        switch=SWITCH, sfcs=(), num_types=RATE_LIMITER, max_recirculations=2
    )
    controller = SfcController(
        instance,
        with_dataplane=True,
        fastpath=fastpath,
        rule_factory=lambda sfc, position, nf_name: rules[sfc.tenant_id][position],
        name="s0",
    )
    if wal_dir is not None:
        ControllerDurability(wal_dir, fsync="batch", checkpoint_every=0).attach(controller)
    admitted = sum(controller.admit(t.sfc).ok for t in tenants)
    return controller, admitted


def rewrite(controller, tenants, write_index: int, count: int) -> int:
    """The ``write_index``-th write: evict ``count`` tenants, taken in turn,
    and admit them again.  Returns how many admits were accepted."""
    accepted = 0
    for k in range(count):
        tenant = tenants[(write_index * count + k) % len(tenants)]
        controller.evict(tenant.sfc.tenant_id)
        accepted += controller.admit(tenant.sfc).ok
    return accepted


def make_batches(cfg: PktConfig, tenants, seed: int):
    """``distinct_batches`` batches of ``(frames, vlans)``: equal lanes per
    tenant, flows and sizes drawn per lane, lanes interleaved."""
    rng = np.random.default_rng(seed + 7)
    sizes = PacketSizeMix().sizes if cfg.size_mix else (64,)
    probs = PacketSizeMix().probabilities if cfg.size_mix else None
    frames: dict[tuple[int, int, int], bytes] = {}
    for tenant in tenants:
        for f, flow in enumerate(tenant.flows):
            for size in sizes:
                frames[(tenant.sfc.tenant_id, f, size)] = _frame(
                    flow, size, vxlan=cfg.vxlan and f % 2 == 1
                )
    lanes = cfg.batch // len(tenants)
    batches = []
    for _ in range(cfg.distinct_batches):
        tenant_ids = np.repeat([t.sfc.tenant_id for t in tenants], lanes)
        rng.shuffle(tenant_ids)
        flow_ix = rng.integers(0, cfg.flows_per_tenant, size=len(tenant_ids))
        size_ix = rng.choice(len(sizes), size=len(tenant_ids), p=probs)
        batch = [
            frames[(int(t), int(f), sizes[int(s)])]
            for t, f, s in zip(tenant_ids, flow_ix, size_ix)
        ]
        batches.append((batch, [int(t) for t in tenant_ids]))
    return batches


def _frame(flow, size: int, vxlan: bool) -> bytes:
    fields = dict(
        src_ip=flow.src_ip, dst_ip=flow.dst_ip, src_port=flow.src_port,
        dst_port=flow.dst_port, protocol=flow.protocol,
    )
    if vxlan:
        bare = len(build_vxlan_frame(flow.tenant_id, **fields))
        return build_vxlan_frame(
            flow.tenant_id, payload=b"\x00" * max(0, size - bare), **fields
        )
    bare = len(build_frame(vlan_id=flow.tenant_id, **fields))
    return build_frame(
        vlan_id=flow.tenant_id, payload=b"\x00" * max(0, size - bare), **fields
    )


# ----------------------------------------------------------------------
class PktWorkload(Workload):
    """One set-up of a packet workload; see ``run.py`` for the protocol."""

    def __init__(self, cfg: PktConfig, seed: int, out_dir: str, seconds: float, trace: bool) -> None:
        self.cfg = cfg
        self.seed = seed
        self.wal_dir = os.path.join(out_dir, "switch")
        self.tenants = make_tenants(cfg, seed)
        self.controller, self.admit_ok = build_controller(
            cfg, self.tenants, seed, fastpath=True, wal_dir=self.wal_dir
        )
        self.admit_tried = len(self.tenants)
        self.batches = make_batches(cfg, self.tenants, seed)
        self.writes = 0
        # Warm: every tenant's plan compiled, numpy and allocator caches hot.
        for frames, vlans in self.batches[:2]:
            self._batch(frames, vlans, None)

    # -- one batch, wire to wire -----------------------------------------
    def _batch(self, frames, vlans, rec):
        # The parser is a function per packet; one span around each loop
        # measures the layer without a wrapper call per packet.
        token = rec.open("dataplane.parser.parse") if rec is not None else None
        packets = [parse_packet(f)[0] for f in frames]
        if rec is not None:
            rec.close(token, n=len(frames))
        results = self.controller.pipeline.process_batch(packets)
        token = rec.open("dataplane.parser.deparse") if rec is not None else None
        wire = [
            deparse_packet(r.packet, v)
            for r, v in zip(results, vlans) if not r.packet.dropped
        ]
        if rec is not None:
            rec.close(token, n=len(wire))
        return results

    def _write(self) -> None:
        """Evict the next tenants in turn and admit them again: RuntimeAPI
        notifies the engine, which drops their plans (and the negative
        plans of the metered tenants) and recompiles on next use."""
        self.admit_ok += rewrite(self.controller, self.tenants, self.writes, self.cfg.write_tenants)
        self.admit_tried += self.cfg.write_tenants
        self.writes += 1

    # -- the measured window -----------------------------------------------
    def measure(self, seconds: float, rec=None) -> dict:
        cfg, batches = self.cfg, self.batches
        engine = self.controller.fastpath
        stats0 = dict(engine.stats)
        lookups0 = self._lookups()
        overflow0 = self.controller.pipeline.recirculation_overflows
        latencies: list[float] = []
        samples = []
        parse_errors = 0
        frames_in = 0
        index = 0
        sample_every = 1
        start = perf_counter()
        t0 = start
        while t0 - start < seconds:
            frames, vlans = batches[index % len(batches)]
            token = rec.open("loadgen.batch", rid=index) if rec is not None else None
            if cfg.write_every and index % cfg.write_every == cfg.write_every - 1:
                self._write()
            try:
                results = self._batch(frames, vlans, rec)
            except DataPlaneError:
                parse_errors += 1
                results = []
            if token is not None:
                rec.close(token)
            t1 = perf_counter()
            latencies.append(t1 - t0)
            frames_in += len(frames)
            # Hold on to a few batches' outputs for the oracle; the stride
            # doubles so that any run length keeps about ORACLE_SAMPLES.
            if index % sample_every == 0:
                # A whole batch holds every tenant equally, so its pass
                # count is exact; the oracle replays only the first lanes.
                samples.append((index, self.writes, results[:ORACLE_LANES],
                                sum(r.passes for r in results)))
                if len(samples) > 2 * ORACLE_SAMPLES:
                    samples = samples[::2]
                    sample_every *= 2
            index += 1
            t0 = perf_counter()
        wall = t0 - start
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        stats = {k: engine.stats[k] - stats0[k] for k in stats0}
        hits, misses = (a - b for a, b in zip(self._lookups(), lookups0))
        tail = tail_percentile(len(latencies), cfg.tail_pct)
        return {
            "wall_s": wall,
            "window": (start, t0),
            "peak_rss_mb": rss_mb,
            "attempted": frames_in,
            "latencies": latencies,
            "admitted_share": self.admit_ok / self.admit_tried,
            # Eq. 1 over the installed tenants (a re-admitted tenant is the same chain).
            "offloaded_gbps": sum(r.sfc.weight for r in self.controller.tenants.values()),
            # Chunks of 16 batches hold the same number of writes each.
            "throughput_per_s": steady_rate(cfg.batch, latencies, 16),
            "latency_p50_ms": percentile(latencies, 50) * 1e3,
            "latency_tail_ms": percentile(latencies, tail) * 1e3,
            "tail_pct": tail,
            "samples": samples[:: max(1, len(samples) // ORACLE_SAMPLES)],
            "engine": stats,
            "parse_errors": parse_errors,
            "hit_share": hits / max(1, hits + misses),
            "recirc_overflows": self.controller.pipeline.recirculation_overflows - overflow0,
            "fastpath_share": stats["compiled_packets"]
            / max(1, stats["compiled_packets"] + stats["interpreted_packets"]),
        }

    def _lookups(self) -> tuple[int, int]:
        tables = [t for s in self.controller.pipeline.stages for t in s.tables]
        return sum(t.hits for t in tables), sum(t.misses for t in tables)

    # -- after the window ------------------------------------------------------
    def check(self, measured: dict) -> tuple[list[str], int, dict]:
        """Replay the sampled batches on an interpreter-only twin and
        compare every result field.  Returns ``(problems, failed packets,
        facts)``."""
        cfg = self.cfg
        twin, _ = build_controller(cfg, self.tenants, self.seed, fastpath=False)
        twin_writes = 0
        mismatched = compared = 0
        for index, writes, results, _passes in measured["samples"]:
            while twin_writes < writes:
                rewrite(twin, self.tenants, twin_writes, cfg.write_tenants)
                twin_writes += 1
            frames, _vlans = self.batches[index % len(self.batches)]
            lanes = frames[:ORACLE_LANES]
            expect = twin.pipeline.process_batch_interpreted(
                [parse_packet(f)[0] for f in lanes]
            )
            for got, want in zip(results, expect):
                compared += 1
                mismatched += _fields(got) != _fields(want)
        problems = []
        if compared == 0:
            problems.append("no batch was sampled for the interpreter oracle")
        if mismatched:
            problems.append(f"{mismatched}/{compared} packets differ from the interpreter oracle")
        if measured["recirc_overflows"]:
            problems.append(f"{measured['recirc_overflows']} recirculation overflows")
        if measured["parse_errors"]:
            problems.append(f"{measured['parse_errors']} batches raised in the parser")
        passes_per_pkt = sum(s[3] for s in measured["samples"]) / max(
            1, cfg.batch * len(measured["samples"])
        )
        if measured["hit_share"] < cfg.min_hit_share:
            problems.append(f"table hit share {measured['hit_share']:.3f} < {cfg.min_hit_share}")
        if passes_per_pkt <= cfg.min_passes_per_pkt:
            problems.append(f"passes per packet {passes_per_pkt:.3f} <= {cfg.min_passes_per_pkt}")
        low, high = cfg.fastpath_share
        if not low <= measured["fastpath_share"] <= high:
            problems.append(
                f"fastpath share {measured['fastpath_share']:.3f} outside [{low}, {high}]"
            )
        if self.admit_ok != self.admit_tried:
            problems.append(f"{self.admit_tried - self.admit_ok} admits were refused")
        failed = mismatched + measured["recirc_overflows"]
        return problems, failed, {"passes_per_pkt": passes_per_pkt, "oracle_packets": compared}

    def recover(self) -> tuple[list[float], list[str], dict]:
        """Checkpoint, journal a fixed tail of writes, close the journal,
        then time ``recover_controller`` on copies of what that leaves."""
        self.controller.durability.checkpoint(self.controller)
        for _ in range(TAIL_WRITES):
            self._write()
        self.controller.durability.close()
        return timed_recoveries(
            self.wal_dir,
            lambda copy: recover_controller(copy, fsync="batch"),
            self.controller.state.digest(),
        )

    def layer_metrics(self, measured: dict) -> dict:
        """Per-layer metrics this workload's own counters supply; span
        timings are added by ``budget.from_spans``."""
        engine = measured["engine"]
        return {
            "dataplane.parser.parse_errors": measured["parse_errors"],
            "fastpath.engine.plan_hit_share": engine["cache_hits"]
            / max(1, engine["cache_hits"] + engine["compiles"]),
            "fastpath.engine.invalidations": engine["invalidations"],
            "fastpath.engine.fastpath_share": measured["fastpath_share"],
            "fastpath.compiler.compiles": engine["compiles"],
            "dataplane.pipeline.passes_per_pkt": measured["facts"]["passes_per_pkt"],
            "dataplane.pipeline.recirc_overflows": measured["recirc_overflows"],
            "dataplane.table.hit_share": measured["hit_share"],
        }

    def install_spans(self, rec) -> None:
        spans_mod.install_packet_path(rec)
        spans_mod.install_controller_path(rec)
        spans_mod.install_durability(rec)

    def close(self) -> None:
        self.controller.durability.close()


def _fields(result) -> tuple:
    p = result.packet
    return (
        p.tenant_id, p.src_ip, p.dst_ip, p.src_port, p.dst_port, p.protocol,
        p.dscp, p.pass_id, p.recirculate, p.dropped, p.egress_port,
        result.passes, result.latency_ns,
    )
