"""A ``RuntimeAPI`` write costs what it writes, not what the table holds.

The microbench is one 128-op batch — delete a 64-rule tenant from the middle
of the table, insert 64 fresh rules for it — on a 1k- and a 16k-entry table
whose every partition has been looked up (so its lookup index is built and
maintained through the write).  :func:`write_us_per_op` is importable, so CI
can print the figures::

    PYTHONPATH=src:. python -c "from tests.dataplane.test_write_cost import \
write_us_per_op as f; print(f(1024), f(16384))"
"""

from __future__ import annotations

import time

from repro.core.spec import SwitchSpec
from repro.dataplane.packet import Packet
from repro.dataplane.pipeline import SwitchPipeline
from repro.dataplane.runtime_api import OpType, RuntimeAPI, WriteOp
from repro.dataplane.table import MatchActionTable, MatchField, MatchKind, TableEntry

KEY = (
    MatchField("tenant_id", MatchKind.EXACT),
    MatchField("pass_id", MatchKind.EXACT),
    MatchField("dst_port", MatchKind.RANGE),
)
RULES_PER_TENANT = 64


def _rules(tenant: int, generation: int) -> list[TableEntry]:
    return [
        TableEntry(
            match={"tenant_id": tenant, "pass_id": 1, "dst_port": (port, port)},
            action="permit",
            params={"generation": generation},
        )
        for port in range(RULES_PER_TENANT)
    ]


def _loaded(entries: int) -> tuple[RuntimeAPI, MatchActionTable, dict[int, list]]:
    pipeline = SwitchPipeline(spec=SwitchSpec(stages=1))
    table = MatchActionTable("acl", key=KEY)
    pipeline.stage(0).install_table(table)
    api = RuntimeAPI(pipeline)
    tenants = {t: _rules(t, 0) for t in range(entries // RULES_PER_TENANT)}
    for tenant, rules in tenants.items():
        assert api.write([WriteOp(OpType.INSERT, "acl", e) for e in rules]).ok
        table.lookup(Packet(tenant_id=tenant, pass_id=1, dst_port=0))
    return api, table, tenants


def write_us_per_op(entries: int, repeats: int = 5) -> float:
    """Min-of-``repeats`` µs per op of the 128-op write on an
    ``entries``-entry table; each repeat rewrites a different tenant from
    the middle of the table."""
    api, _table, tenants = _loaded(entries)
    middle = len(tenants) // 2
    best = float("inf")
    for k in range(repeats):
        tenant = middle + k
        fresh = _rules(tenant, 1)
        ops = [WriteOp(OpType.DELETE, "acl", e) for e in tenants[tenant]]
        ops += [WriteOp(OpType.INSERT, "acl", e) for e in fresh]
        start = time.perf_counter()
        result = api.write(ops)
        best = min(best, time.perf_counter() - start)
        assert result.ok and result.applied == len(ops)
        tenants[tenant] = fresh
    return best / (2 * RULES_PER_TENANT) * 1e6


def test_write_cost_is_flat_in_table_size():
    small, large = write_us_per_op(1024), write_us_per_op(16384)
    assert large <= 2 * small, (
        f"{large:.2f} us/op at 16k entries vs {small:.2f} at 1k"
    )


def test_identity_delete_compares_no_entries(monkeypatch):
    api, table, tenants = _loaded(1024)
    calls = []
    original = TableEntry.__eq__

    def counting_eq(self, other):
        calls.append(1)
        return original(self, other)

    monkeypatch.setattr(TableEntry, "__eq__", counting_eq)
    victims = tenants[len(tenants) // 2]
    assert api.write([WriteOp(OpType.DELETE, "acl", e) for e in victims]).ok
    assert calls == []
    assert table.num_entries == 1024 - RULES_PER_TENANT
