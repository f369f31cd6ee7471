"""The block compiler's output, pinned by recorded value.

Each expected digest below is a constant recorded from the compiler, not
recomputed by the test.  Per case, one blake2b over everything
:func:`~repro.fastpath.compiler.compile_chain` returns for one tenant: the
verdict's ``fallback_reason``, and for every ``(table, tenant ID, pass)``
block its ``preds``/``wen``/``wval`` arrays, its scalar ranks and the
``(action, kind, writes)`` of every binding.  A rewrite of
``fastpath/compiler.py`` that keeps these lowers every rule the way the one
that recorded them did.

The cases: every tenant of the differential fleet (straight, folded,
LPM-only, pass-2-only, metered = fallback, monitored = scalar), once as
admitted and once after rules written behind the controller's back —
shared-partition rules (wildcard tenant, with and without a pass), a
stranger tenant that only the shared rules reach, the fallbacks (a match
value beyond 64 bits, an unknown action, missing params, and two of them in
one partition, in both orders) and a tenant whose rules exercise every
vector action, parameter coercion and a ``set_tenant`` into another
tenant's wire ID.
"""

from __future__ import annotations

from hashlib import blake2b

import numpy as np
import pytest

from repro.dataplane.table import TableEntry
from repro.fastpath.compiler import compile_chain
from tests.dataplane.differential.fleet import Fleet

TENANTS = 12

#: blake2b-128 per case, recorded from the compiler (module docstring).
DIGESTS = {
    "fleet-1": "efc91f02600b3e015c271450ded52a42",
    "fleet-2": "8132a697e6fcf13b38998e191ada87e2",
    "fleet-3": "fd2100893b6a136385a95b04321f5d2f",
    "fleet-4": "3617dd72aa85e2f2b704f60cdc4f9900",
    "fleet-5": "3d21128d1d90ca2a9fda587e4cd5e357",
    "fleet-6": "ba9e3b6acc6bc3a15acd2ce26923e459",
    "fleet-7": "08201c9de8f056eec3858a10bdb9eed6",
    "fleet-8": "170e3a9810210acd7d18ffca6410d573",
    "fleet-9": "15bef505eb304008eeb4cbc8c959b236",
    "fleet-10": "12d84e375a32c646581a8610eb06eedb",
    "fleet-11": "3d21128d1d90ca2a9fda587e4cd5e357",
    "fleet-12": "25799c0565392e4506b327f824afd896",
    "extras-1": "2c9e574fc8483fc57f7650cb94c1ee11",
    "extras-2": "08c265c2a23b34b020a3c08c7d7666c4",
    "extras-3": "f0ed2bab258dfe441c7b587036d5f946",
    "extras-4": "fefb8cf6f260c64a9dc75747e4ef9166",
    "extras-5": "3d21128d1d90ca2a9fda587e4cd5e357",
    "extras-6": "4529c8a2195ef58b85748241143a9b39",
    "extras-7": "a4887672948d760383e41936b5061ada",
    "extras-8": "1f4417ca8f1192d335a97a6df3730b42",
    "extras-9": "68efeefbc375a6acc4a68d473cdaa562",
    "extras-10": "2153980817476d88aed1f23a87281261",
    "extras-11": "3d21128d1d90ca2a9fda587e4cd5e357",
    "extras-12": "4532724f9fc23ad4df21fd955c07d51e",
    "extras-999": "3f7a1d579ee2c2c895c98ed02fe61330",
    "extras-500": "8ae433f28e8c2a9a5d8ad0c3c811f5b7",
    "extras-501": "8ae2fdbf349ff675d83a3adc11e4609a",
    "extras-502": "6584454690c49d4e3320a2e2a06fcfc6",
    "extras-503": "8ae2fdbf349ff675d83a3adc11e4609a",
    "extras-504": "0f727c6cc8bf664951e922def0671e91",
    "extras-505": "dfe318390ec6034e04a7428237a068f4",
}


def _extras(fleet: Fleet) -> None:
    """Rules inserted straight into the physical tables."""
    def put(table: str, match: dict, action: str, params=None, priority: int = 0):
        fleet.pipeline.find_table(table)[1].insert(
            TableEntry(match=match, action=action, params=params or {}, priority=priority)
        )

    # Shared partition: wildcard tenant, pass 1 only / every pass.
    put("router@s3", {"pass_id": 1, "dst_ip": (0x0B000000, 8)}, "forward", {"port": 7}, 50)
    put("traffic_classifier@s1", {"dst_port": (1000, 2000), "protocol": 17},
        "set_dscp", {"dscp": 33, "rec": True}, 200)
    put("firewall@s0", {"src_ip": (0x0A000000, 0xFF000000)}, "count", {"counter": "c"}, 5)
    # Fallbacks.
    put("traffic_classifier@s1", {"tenant_id": 500, "pass_id": 1, "dst_port": (0, 1 << 70)},
        "permit")
    put("firewall@s0", {"tenant_id": 501, "pass_id": 1}, "warp_drive")
    put("traffic_classifier@s1", {"tenant_id": 502, "pass_id": 1}, "set_dscp")
    put("firewall@s0", {"tenant_id": 503, "pass_id": 1}, "warp_drive")
    put("firewall@s0", {"tenant_id": 503, "pass_id": 2}, "set_dscp", {"dscp": "x"})
    put("firewall@s0", {"tenant_id": 504, "pass_id": 1}, "set_dscp", {"dscp": "x"})
    put("firewall@s0", {"tenant_id": 504, "pass_id": 2}, "warp_drive")
    # Every vector action, coerced params, REC, and a rewrite into tenant 1.
    put("firewall@s0", {"tenant_id": 505, "pass_id": 1, "dst_port": (80, 80)},
        "snat", {"src_ip": 0x0B000001, "src_port": "4000", "rec": True}, 9)
    put("firewall@s0", {"tenant_id": 505, "pass_id": 2}, "drop", {"rec": True})
    put("traffic_classifier@s1", {"tenant_id": 505, "pass_id": 1},
        "set_dscp", {"dscp": 7.9}, 3)
    put("monitor@s1", {"tenant_id": 505, "dst_ip": (0x0A000000, 0xFF000000)},
        "set_dst", {"dst_ip": 0x0A000009})
    put("monitor@s1", {"tenant_id": 505, "pass_id": 2}, "no_op", {"rec": 1}, 4)
    put("load_balancer@s2", {"tenant_id": 505, "pass_id": 1, "protocol": 6},
        "set_tenant", {"wire_id": fleet.wire_id(1)})
    put("router@s3", {"tenant_id": 505, "pass_id": 1, "dst_ip": (0x0A000000, 16)},
        "forward", {"port": 3}, 1)
    put("router@s3", {"tenant_id": 505, "pass_id": 1, "dst_ip": (0x0A000000, 24)},
        "permit", {}, 1)


EXTRA_TENANTS = (999, 500, 501, 502, 503, 504, 505)


def chain_digest(pipeline, tenant_id: int) -> str:
    plan = compile_chain(pipeline, tenant_id)
    h = blake2b(digest_size=16)
    h.update(repr(plan.fallback_reason).encode())
    for ti, tid in sorted(plan.blocks):
        by_pass = plan.blocks[ti, tid]
        for p in sorted(by_pass):
            block = by_pass[p]
            h.update(repr((ti, tid, p, list(block.scalar))).encode())
            for arr in (block.preds, block.wen, block.wval):
                h.update(f"{arr.dtype.str}{arr.shape}".encode())
                h.update(np.ascontiguousarray(arr).tobytes())
            h.update(repr([(b.action, b.kind, b.writes) for b in block.bindings]).encode())
    return h.hexdigest()


@pytest.fixture(scope="module")
def digests() -> dict:
    out = {}
    plain = Fleet(TENANTS, fastpath=False)
    for t in plain.tenant_ids:
        out[f"fleet-{t}"] = chain_digest(plain.pipeline, t)
    written = Fleet(TENANTS, fastpath=False)
    _extras(written)
    for t in written.tenant_ids + list(EXTRA_TENANTS):
        out[f"extras-{t}"] = chain_digest(written.pipeline, t)
    return out


CASES = [f"fleet-{t}" for t in range(1, TENANTS + 1)] + [
    f"extras-{t}" for t in list(range(1, TENANTS + 1)) + list(EXTRA_TENANTS)
]


@pytest.mark.parametrize("case", CASES)
def test_compiled_blocks_are_pinned(digests, case):
    assert digests[case] == DIGESTS[case]
