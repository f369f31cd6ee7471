"""The columnar batch kernel: one run per batch, whatever the tenant mix.

What it runs over is one :class:`TableStack` per physical table: a
snapshot of the table's published blocks over an append-only row arena.
Publishing appends the changed blocks' rows and returns a new snapshot
(a copied index, the same arrays); rows are never written twice, so a run
that holds an older snapshot keeps a consistent view; once dead rows
outnumber live ones a snapshot is compacted into fresh arrays.

The contract — given every table's :class:`TableStack` and a batch of
first-pass packets of *any* compilable tenants, produce *exactly* the
packet mutations, pass counts, hit/miss counter bumps and recirculation-
overflow accounting the interpreter would, and return the per-packet pass
count.

Lane state is one int64 matrix over :data:`~repro.fastpath.compiler.COLUMNS`
(header fields, egress, REC, drop), loaded once and written back once.  Per
pass, per physical table (stage order), each live lane's rule block is
looked up from its *current* ``tenant_id`` column and the pass
(``np.unique`` over the tenants present + a dict): ``set_tenant`` is just a
write to that column, so the controller's ``tenant_map`` rewrite needs no
special case.  Lanes with no block miss in bulk.  Matching is **rank-major
across tenants**: iteration *r* gathers the *r*-th rule of every still-
unassigned lane's block and tests all key fields at once, stopping when no
lane is unassigned — so the cost follows the rank hits land at, not the
number of tenants or the size of the table.  Winners' action rows are
applied with one ``np.where``; the table's default action is row 0 of its
stack, so a miss is a winner like any other.

What stays per lane: column load and write-back (O(1) each), and the
scalar-safe actions — the real registered functions, called in lane order.

Counter exactness: the interpreter performs one lookup per live packet per
table application, so the kernel bumps ``table.hits``/``table.misses`` by
the matched/unmatched lane counts of each step — identical totals, in
bulk.  Dropped packets leave the live set immediately and their REC flag
freezes as-is, mirroring the interpreter's mid-stage break.
"""

from __future__ import annotations

from itertools import chain
from operator import attrgetter

import numpy as _np

from repro.fastpath.compiler import (
    COLUMN_FIELDS,
    COLUMNS,
    _compile_binding,
    action_rows,
    residual_fields,
)

_TENANT = COLUMNS.index("tenant_id")
_EGRESS = COLUMNS.index("egress_port")
_EGRESS_SET = COLUMNS.index("egress_set")
_REC = COLUMNS.index("rec")
_DROPPED = COLUMNS.index("dropped")
_HEADER = attrgetter(*COLUMN_FIELDS)
#: Rank-major matching goes on while a rank assigns at least 1 in this
#: many of the lanes it tested.
_PRODUCTIVE = 32
#: Lane x rule tests per round of the per-block walk (bounds its temporaries).
_BLOCK_TESTS = 1 << 15
#: Smallest row arena a table stack allocates.
_MIN_ROWS = 64


def _test(values, preds, masked: int):
    """Do ``values`` (lanes x fields) pass ``preds`` (rules x (a, b) x
    fields — one rule per lane, or broadcast against the lanes)?  The
    first ``masked`` fields are masked equality ``(v & a) == b``, the rest
    ranges ``a <= v <= b``.  Field by field: a reduction over so short an
    axis costs several times the compares themselves."""
    ok = True
    for f in range(values.shape[-1]):
        v, a, b = values[..., f], preds[..., 0, f], preds[..., 1, f]
        ok = ok & (((v & a) == b) if f < masked else ((v >= a) & (v <= b)))
    return ok


class _Arena:
    """The rows a table's snapshots share: append-only, so a row once
    written never changes, with capacity doubling.  Row 0 is the table's
    default action; ``rows`` are in use; ``fns`` are the scalar bindings
    that ``scalar`` indexes (-1: none)."""

    __slots__ = ("preds", "wen", "wval", "scalar", "fns", "rows")

    def __init__(self, fields: int, capacity: int) -> None:
        capacity = max(capacity, _MIN_ROWS)
        self.preds = _np.zeros((capacity, 2, fields), _np.int64)
        self.wen = _np.zeros((capacity, len(COLUMNS)), bool)
        self.wval = _np.zeros((capacity, len(COLUMNS)), _np.int64)
        self.scalar = _np.full(capacity, -1, _np.intp)
        self.fns: list = []
        self.rows = 0

    def reserve(self, rows: int) -> None:
        """Room for ``rows`` more rows: past the capacity, fresh arrays of
        twice what is needed (the old ones stay with the snapshots that
        hold them)."""
        need = self.rows + rows
        if need > len(self.scalar):
            for name in ("preds", "wen", "wval", "scalar"):
                old = getattr(self, name)
                new = _np.zeros((2 * need,) + old.shape[1:], old.dtype)
                new[: self.rows] = old[: self.rows]
                setattr(self, name, new)
            self.scalar[self.rows:] = -1

    def append(self, preds, wen, wval, scalar, fns) -> int:
        """Write rows after the last one; returns the first row written."""
        first, k = self.rows, len(wen)
        self.reserve(k)
        self.preds[first : first + k] = preds
        self.wen[first : first + k] = wen
        self.wval[first : first + k] = wval
        for r, binding in zip(scalar, fns):
            self.scalar[first + r] = len(self.fns)
            self.fns.append(binding)
        self.rows += k
        return first


class TableStack:
    """One physical table as the kernel sees it: a snapshot of every
    published block of the table, row 0 being the table's default action.

    ``index`` maps ``(tenant, pass)`` to the block's ``(first row, number
    of rows)`` in ``preds``/``wen``/``wval`` (the blocks' arrays, see
    :class:`~repro.fastpath.compiler.Block`); ``scalar[row]`` indexes
    ``fns`` (the scalar bindings) or is -1.  The arrays are an append-only
    row arena shared by the table's snapshots: :meth:`publish` writes only
    the rows of the blocks it is given and returns a new snapshot, so a run
    holding an older one never sees a row it reads change.  Rows no index
    names any more are dead; once they outnumber the live ones, the
    snapshot is compacted into fresh arrays.  ``written`` counts the rows
    written into arenas so far (appends and compaction copies).
    """

    __slots__ = (
        "table", "cols", "masked", "index", "passes", "live", "written",
        "_arena", "preds", "wen", "wval", "scalar", "fns",
    )

    def __init__(self, table, blocks: dict, registry) -> None:
        """A stack built from scratch: ``blocks`` is ``tenant -> {pass:
        Block}`` for this table."""
        self.table = table
        fields, self.masked = residual_fields(table)
        self.cols = _np.array([COLUMNS.index(f.name) for f in fields], _np.intp)
        self.index, self.passes, self.live, self.written = {}, {}, 0, 0
        rows = sum(len(b) for by_pass in blocks.values() for b in by_pass.values())
        self._arena = _Arena(len(fields), 2 * (rows + 1))
        default = _compile_binding(table.default_action, table.default_params, registry)
        wen, wval = action_rows((default,))
        scalar = [0] if default.kind == "scalar" else []
        self._arena.append(_np.zeros((1, 2, len(fields)), _np.int64), wen, wval,
                           scalar, (default,) * len(scalar))
        self._add(blocks, rows)
        self._bind()

    def publish(self, changes: dict) -> "TableStack":
        """A new snapshot with ``changes`` (``tenant -> {pass: Block}``,
        ``{}`` = the tenant's blocks are gone) applied: the index is copied,
        the tenants named lose their keys and the blocks given are appended.
        This snapshot is left as it was."""
        new = object.__new__(TableStack)
        for name in TableStack.__slots__:
            setattr(new, name, getattr(self, name))
        new.index, new.passes = dict(self.index), dict(self.passes)
        for tenant in changes:
            for pass_id in new.passes.pop(tenant, ()):
                new.live -= new.index.pop((tenant, pass_id))[1]
        blocks = {tenant: by_pass for tenant, by_pass in changes.items() if by_pass}
        rows = sum(len(b) for by_pass in blocks.values() for b in by_pass.values())
        if new._arena.rows - 1 - new.live > new.live:
            new._compact(rows)  # before the append: the fresh arena has room
        new._add(blocks, rows)
        new._bind()
        return new

    def _add(self, blocks: dict, rows: int) -> None:
        arena = self._arena
        arena.reserve(rows)
        for tenant, by_pass in blocks.items():
            for pass_id, block in by_pass.items():
                first = arena.append(block.preds, block.wen, block.wval, block.scalar, block.fns)
                self.index[tenant, pass_id] = (first, len(block))
                self.live += len(block)
                self.written += len(block)
            self.passes[tenant] = tuple(by_pass)

    def _compact(self, incoming: int) -> None:
        """Copy row 0 and the live rows into a fresh arena with room for
        twice them and the ``incoming`` rows, block after block, and
        renumber the index."""
        old = self._arena
        take = [_np.zeros(1, _np.intp)]
        at = 1
        for key, (first, count) in self.index.items():
            take.append(_np.arange(first, first + count))
            self.index[key] = (at, count)
            at += count
        take = _np.concatenate(take)
        fresh = _Arena(old.preds.shape[2], 2 * (len(take) + incoming))
        scalar = old.scalar[take]
        ranks = _np.flatnonzero(scalar >= 0).tolist()
        fresh.append(old.preds[take], old.wen[take], old.wval[take], ranks,
                     [old.fns[s] for s in scalar[ranks].tolist()])
        self._arena = fresh
        self.written += len(take)

    def _bind(self) -> None:
        arena = self._arena
        self.preds, self.wen, self.wval = arena.preds, arena.wen, arena.wval
        self.scalar, self.fns = arena.scalar, arena.fns


class NumpyKernel:
    """Vectorized execution of a whole batch over the table stacks."""

    def run(self, stacks, packets: list, pipeline) -> list[int]:
        """Execute first-pass ``packets`` (any mix of tenants whose blocks
        are in ``stacks``, one :class:`TableStack` per table in walk
        order), mutating them in place; returns each packet's pass count."""
        n = len(packets)
        state = _np.zeros((n, len(COLUMNS)), _np.int64)
        state[:, : len(COLUMN_FIELDS)] = _np.fromiter(
            chain.from_iterable(map(_HEADER, packets)),
            _np.int64, n * len(COLUMN_FIELDS),
        ).reshape(n, len(COLUMN_FIELDS))
        for i, p in enumerate(packets):
            if p.egress_port is not None:
                state[i, _EGRESS] = p.egress_port
                state[i, _EGRESS_SET] = 1
        final_pass = _np.ones(n, _np.int64)
        lanes = _np.arange(n)
        max_passes = pipeline.max_passes
        for pnum in range(1, max_passes + 1):
            final_pass[lanes] = pnum
            state[lanes, _REC] = 0
            for stack in stacks:
                self._step(stack, pnum, lanes, state, packets)
                lanes = lanes[state[lanes, _DROPPED] == 0]
                if not lanes.size:
                    break
            lanes = lanes[state[lanes, _REC] != 0]
            if not lanes.size:
                break
            if pnum == max_passes:
                pipeline.recirculation_overflows += int(lanes.size)
        # -- writeback -----------------------------------------------------
        passes_out = final_pass.tolist()
        columns = state.T.tolist()
        for i, (p, tenant, src_ip, dst_ip, src_port, dst_port, proto, dscp,
                egress, egress_set, rec, dropped) in enumerate(zip(packets, *columns)):
            p.tenant_id = tenant
            p.src_ip = src_ip
            p.dst_ip = dst_ip
            p.src_port = src_port
            p.dst_port = dst_port
            p.protocol = proto
            p.dscp = dscp
            p.pass_id = passes_out[i]
            p.recirculate = rec != 0
            p.dropped = dropped != 0
            p.egress_port = egress if egress_set else None
        return passes_out

    # ------------------------------------------------------------------
    @staticmethod
    def _match(stack: TableStack, pnum: int, cur):
        """The winning stack row of every lane of ``cur`` (the live lanes'
        state, all in pass ``pnum``); row 0 — the default — on a miss."""
        rows = _np.zeros(len(cur), _np.intp)
        if not stack.index:
            return rows
        tenants, inverse = _np.unique(cur[:, _TENANT], return_inverse=True)
        spans = _np.array(
            [stack.index.get((t, pnum), (0, 0)) for t in tenants.tolist()], _np.intp
        )[inverse]
        first, count = spans[:, 0], spans[:, 1]
        if not stack.cols.size:
            return first  # nothing left to test: rank 0 wins, no block = row 0
        values = cur[:, stack.cols]
        masked = stack.masked
        todo = _np.flatnonzero(count)
        # Rank-major across tenants: rank r of every unassigned lane's block
        # in one test.  Cheap while hits come early; each round costs a
        # gather of one rule row per lane, so once a rank assigns almost
        # nobody the lanes left are in for a long walk ...
        rank = 0
        while todo.size:
            at = first[todo] + rank
            ok = _test(values[todo], stack.preds[at], masked)
            rows[todo[ok]] = at[ok]
            rank += 1
            tested = todo.size
            todo = todo[~ok]
            productive = (tested - todo.size) * _PRODUCTIVE >= tested
            todo = todo[count[todo] > rank]
            if not productive:
                break
        # ... which goes block by block: a block's lanes against slices of
        # its remaining rules, broadcast, no per-lane gather of rule rows.
        todo = todo[_np.argsort(first[todo])]
        edges = _np.flatnonzero(_np.diff(first[todo])) + 1
        for lanes_b in _np.split(todo, edges) if todo.size else ():
            at, end = first[lanes_b[0]] + rank, first[lanes_b[0]] + count[lanes_b[0]]
            while lanes_b.size and at < end:
                step = max(1, _BLOCK_TESTS // lanes_b.size)
                ok = _test(values[lanes_b, None], stack.preds[at : min(end, at + step)], masked)
                hit = ok.any(1)
                rows[lanes_b[hit]] = at + ok[hit].argmax(1)
                lanes_b = lanes_b[~hit]
                at += step
        return rows

    @classmethod
    def _step(cls, stack: TableStack, pnum: int, lanes, state, packets) -> None:
        """Apply one table to the live ``lanes`` (all in pass ``pnum``)."""
        cur = state[lanes]
        rows = cls._match(stack, pnum, cur)
        hits = int(_np.count_nonzero(rows))
        stack.table.hits += hits
        stack.table.misses += lanes.size - hits
        state[lanes] = _np.where(stack.wen[rows], stack.wval[rows], cur)
        if stack.fns:
            # Per-lane call of the real registered function: these only
            # touch scratch/extern state, drop and REC, so the flags are
            # shuttled through the real Packet around the call.
            scalar = stack.scalar[rows]
            for j in _np.flatnonzero(scalar >= 0).tolist():
                i = lanes[j]
                binding, pkt = stack.fns[scalar[j]], packets[i]
                pkt.recirculate = bool(state[i, _REC])
                pkt.dropped = False
                binding.fn(pkt, binding.params)
                if pkt.recirculate:
                    state[i, _REC] = 1
                if pkt.dropped:
                    state[i, _DROPPED] = 1
