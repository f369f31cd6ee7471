"""The columnar batch kernel executing a :class:`CompiledChain`.

The contract — given a compiled plan and a group of same-tenant,
first-pass packets, produce *exactly* the packet mutations, pass counts,
hit/miss counter bumps and recirculation-overflow accounting the
interpreter would, and return the per-packet pass count.

:class:`NumpyKernel` turns header fields into int64 columns; each compiled
step evaluates its rank-ordered entries as boolean masks over the still-
unassigned packets, applies bindings per winner-group as masked columnar
writes, and recirculation is a masked pass loop.  Per-packet Python work
is O(1): column load and writeback.

Counter exactness: the interpreter performs one lookup per live packet per
table application, so the kernel bumps ``table.hits``/``table.misses`` by
the matched/unassigned cardinalities of each step — identical totals, in
bulk.  Dropped packets leave the active set immediately (no later table
sees them) and their REC flag freezes as-is, mirroring the interpreter's
mid-stage break.
"""

from __future__ import annotations

import numpy as _np

from repro.fastpath.compiler import Binding, CompiledChain, FoldedStep

#: Header/metadata fields materialized as columns (everything a match key
#: may read or a vector action may write, minus the pass/flag state the
#: kernel tracks separately).
COLUMN_FIELDS = (
    "tenant_id",
    "src_ip",
    "dst_ip",
    "src_port",
    "dst_port",
    "protocol",
    "dscp",
)


class NumpyKernel:
    """Vectorized plan execution over int64 header columns."""

    def run(self, plan: CompiledChain, packets: list, pipeline) -> list[int]:
        """Execute ``plan`` over same-tenant first-pass ``packets``,
        mutating them in place; returns each packet's pass count."""
        n = len(packets)
        cols = {
            f: _np.fromiter((getattr(p, f) for p in packets), _np.int64, count=n)
            for f in COLUMN_FIELDS
        }
        rec = _np.zeros(n, bool)
        dropped = _np.zeros(n, bool)
        active = _np.ones(n, bool)
        egress = _np.zeros(n, _np.int64)
        egress_set = _np.zeros(n, bool)
        for i, p in enumerate(packets):
            if p.egress_port is not None:
                egress[i] = p.egress_port
                egress_set[i] = True
        final_pass = _np.ones(n, _np.int64)
        state = (cols, rec, dropped, active, egress, egress_set, packets)
        max_passes = len(plan.passes)
        for pi, steps in enumerate(plan.passes):
            if not active.any():
                break
            pnum = pi + 1
            final_pass[active] = pnum
            rec[active] = False
            for step in steps:
                if not active.any():
                    break
                if isinstance(step, FoldedStep):
                    count = int(active.sum())
                    if step.hit:
                        step.table.hits += count
                    else:
                        step.table.misses += count
                    self._apply(step.binding, active.copy(), state)
                    continue
                unassigned = active.copy()
                for ce in step.entries:
                    if not unassigned.any():
                        break
                    m = unassigned
                    for pred in ce.preds:
                        m = m & self._pred_mask(pred, cols)
                        if not m.any():
                            break
                    if m is unassigned:
                        m = unassigned.copy()
                    if m.any():
                        step.table.hits += int(m.sum())
                        self._apply(ce.binding, m, state)
                        unassigned = unassigned & ~m
                if unassigned.any():
                    step.table.misses += int(unassigned.sum())
                    self._apply(step.default, unassigned, state)
            if pnum >= max_passes:
                overflowing = int((active & rec).sum())
                if overflowing:
                    pipeline.recirculation_overflows += overflowing
                break
            active = active & rec
        # -- writeback -----------------------------------------------------
        tenant_c = cols["tenant_id"]
        src_ip_c = cols["src_ip"]
        dst_ip_c = cols["dst_ip"]
        src_port_c = cols["src_port"]
        dst_port_c = cols["dst_port"]
        proto_c = cols["protocol"]
        dscp_c = cols["dscp"]
        passes_out = final_pass.tolist()
        rec_l = rec.tolist()
        dropped_l = dropped.tolist()
        egress_l = egress.tolist()
        egress_set_l = egress_set.tolist()
        tenant_l = tenant_c.tolist()
        src_ip_l = src_ip_c.tolist()
        dst_ip_l = dst_ip_c.tolist()
        src_port_l = src_port_c.tolist()
        dst_port_l = dst_port_c.tolist()
        proto_l = proto_c.tolist()
        dscp_l = dscp_c.tolist()
        for i, p in enumerate(packets):
            p.tenant_id = tenant_l[i]
            p.src_ip = src_ip_l[i]
            p.dst_ip = dst_ip_l[i]
            p.src_port = src_port_l[i]
            p.dst_port = dst_port_l[i]
            p.protocol = proto_l[i]
            p.dscp = dscp_l[i]
            p.pass_id = passes_out[i]
            p.recirculate = rec_l[i]
            p.dropped = dropped_l[i]
            p.egress_port = egress_l[i] if egress_set_l[i] else None
        return passes_out

    # ------------------------------------------------------------------
    @staticmethod
    def _pred_mask(pred: tuple, cols: dict):
        kind = pred[0]
        if kind == "exact":
            return cols[pred[1]] == pred[2]
        if kind == "mask":
            return (cols[pred[1]] & pred[2]) == pred[3]
        # range
        col = cols[pred[1]]
        return (col >= pred[2]) & (col <= pred[3])

    @staticmethod
    def _apply(b: Binding, mask, state) -> None:
        """Apply one binding to the packets selected by ``mask``."""
        cols, rec, dropped, active, egress, egress_set, packets = state
        if b.kind == "scalar":
            # Per-packet call of the real registered function: these only
            # touch scratch/extern state, drop and REC, so the flags are
            # shuttled through the real Packet around the call.
            for i in _np.nonzero(mask)[0]:
                pkt = packets[i]
                pkt.recirculate = bool(rec[i])
                pkt.dropped = False
                b.fn(pkt, b.params)
                if pkt.recirculate:
                    rec[i] = True
                if pkt.dropped:
                    dropped[i] = True
                    active[i] = False
            return
        if b.drop:
            dropped[mask] = True
            active[mask] = False
            return
        for fname, value in b.writes:
            cols[fname][mask] = value
        if b.egress is not None:
            egress[mask] = b.egress
            egress_set[mask] = True
        if b.rec:
            rec[mask] = True
