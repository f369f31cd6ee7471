"""A many-tenant switch for the fast-path differential and scaling tests.

One :class:`~repro.controller.controller.SfcController` with tenants of six
kinds — between them every way a tenant's lanes can relate to a physical
table — and rules crafted onto each tenant's own flows, so lookups hit and
actions run.  Built twice (``fastpath=True`` / ``False``) it is the twin
the differential test compares; built once it is the fixture of the
scaling guards.
"""

from __future__ import annotations

import numpy as np

from repro.controller.controller import SfcController
from repro.core.spec import SFC, ProblemInstance, SwitchSpec
from repro.dataplane.registers import CounterArray
from repro.dataplane.table import TableEntry
from repro.nfs import get_nf
from repro.nfs.stateful import MeteredRateLimiter
from repro.traffic.flows import FlowGenerator

FIREWALL, LOAD_BALANCER, CLASSIFIER, ROUTER, RATE_LIMITER, MONITOR = 1, 2, 3, 4, 5, 10

#: kind -> chain.  Tenant 1 is straight, so the tables land in Fig. 4 order.
KINDS = {
    "straight": (FIREWALL, CLASSIFIER, LOAD_BALANCER, ROUTER),
    # Same NFs in an order the resident tables serve only in two passes.
    "folded": (LOAD_BALANCER, ROUTER, FIREWALL, CLASSIFIER),
    # Rules in one table, none in any other.
    "router_only": (ROUTER,),
    # The firewall sits before the classifier: its rules are pass-2 only.
    "late_firewall": (CLASSIFIER, FIREWALL),
    # ``meter_police``: uncompilable, the tenant's lanes take the interpreter.
    "metered": (FIREWALL, CLASSIFIER, RATE_LIMITER, ROUTER),
    # ``count_extern``: a scalar action, called per matched lane.
    "monitored": (FIREWALL, MONITOR, ROUTER),
}
FLOWS_PER_TENANT = 4
FULL = 0xFFFFFFFF
SLASH24 = 0xFFFFFF00


def kind_of(tenant_id: int) -> str:
    return list(KINDS)[(tenant_id - 1) % len(KINDS)]


def flows_of(tenant_id: int):
    return FlowGenerator(1000 + tenant_id).flows(FLOWS_PER_TENANT, tenant_id=tenant_id)


def sfc_of(tenant_id: int, kind: str | None = None, filler: int = 6) -> SFC:
    chain = KINDS[kind or kind_of(tenant_id)]
    return SFC(
        name=f"t{tenant_id}",
        nf_types=chain,
        rules=(FLOWS_PER_TENANT + filler,) * len(chain),
        bandwidth_gbps=1.0,
        tenant_id=tenant_id,
    )


class Fleet:
    """One controller, ``tenants`` tenants admitted, its own externs."""

    def __init__(self, tenants: int, fastpath: bool, filler: int = 6) -> None:
        self.filler = filler
        # A bucket this deep never empties: every metered packet is GREEN
        # whatever order the lanes are charged in.
        self.limiter = MeteredRateLimiter(slots=64, burst_bytes=1e15)
        self.counters = CounterArray("fleet_counters", size=64)
        self.controller = SfcController(
            ProblemInstance(
                switch=SwitchSpec(stages=4, blocks_per_stage=24, capacity_gbps=400.0),
                sfcs=(), num_types=MONITOR, max_recirculations=2,
            ),
            with_dataplane=True,
            fastpath=fastpath,
            rule_factory=self._rules,
            name="s0",
        )
        self.tenant_ids = list(range(1, tenants + 1))
        for tenant_id in self.tenant_ids:
            assert self.controller.admit(sfc_of(tenant_id, filler=filler)).ok

    @property
    def pipeline(self):
        return self.controller.pipeline

    @property
    def engine(self):
        return self.controller.fastpath

    def wire_id(self, tenant_id: int) -> int:
        return self.controller.installer.installed[tenant_id].wire_id

    def rewrite(self, tenant_id: int) -> None:
        """What the e2e bench's write does: evict, admit again."""
        assert self.controller.evict(tenant_id).ok
        assert self.controller.admit(sfc_of(tenant_id, filler=self.filler)).ok

    # -- rules ---------------------------------------------------------------
    def _rules(self, sfc: SFC, position: int, nf_name: str) -> tuple[TableEntry, ...]:
        """Per flow one high-priority rule the flow hits at this NF (the
        last flow is denied by the firewall), then seeded filler."""
        nf = sfc.nf_types[position]
        flows = flows_of(sfc.tenant_id)
        rng = np.random.default_rng(sfc.tenant_id * 31 + position)
        crafted = []
        for index, flow in enumerate(flows):
            if nf == FIREWALL:
                deny = index == len(flows) - 1
                spec = ({"src_ip": (flow.src_ip, FULL), "protocol": flow.protocol},
                        "drop" if deny else "permit", {})
            elif nf == CLASSIFIER:
                spec = ({"src_ip": (flow.src_ip & SLASH24, SLASH24),
                         "dst_port": (0, 65535), "protocol": flow.protocol},
                        "set_dscp", {"dscp": int(rng.integers(1, 64))})
            elif nf == LOAD_BALANCER:
                spec = ({"dst_ip": flow.dst_ip, "dst_port": flow.dst_port,
                         "protocol": flow.protocol},
                        "set_dst", {"dst_ip": int(0x0AC80000 + rng.integers(0, 2**14)),
                                    "dst_port": 8080})
            elif nf == ROUTER:
                # Original destinations and the balancer's backends alike.
                spec = ({"dst_ip": (0x0A000000, 8)},
                        "forward", {"port": int(rng.integers(0, 32))})
            elif nf == RATE_LIMITER:
                spec = ({"src_ip": (flow.src_ip & SLASH24, SLASH24),
                         "protocol": flow.protocol},
                        "meter_police", {"meter": self.limiter.meter, "index": index})
            else:  # MONITOR
                spec = ({"dst_ip": (flow.dst_ip & SLASH24, SLASH24),
                         "protocol": flow.protocol},
                        "count_extern", {"counter": self.counters, "index": index})
            match, action, params = spec
            crafted.append(TableEntry(match=match, action=action, params=params, priority=100))
        source = self.limiter if nf == RATE_LIMITER else get_nf(nf)
        filler = source.generate_rules(sfc.tenant_id * 101 + position, self.filler)
        return tuple(crafted) + tuple(filler)


def make_batch(tenant_ids, per_flow: int, seed: int):
    """Fresh packets, ``per_flow`` of every flow of every tenant, lanes
    interleaved by a seeded shuffle."""
    packets = [
        flow.make_packet(64)
        for tenant_id in tenant_ids
        for flow in flows_of(tenant_id)
        for _ in range(per_flow)
    ]
    order = np.random.default_rng(seed).permutation(len(packets))
    return [packets[int(i)] for i in order]
