"""The table lookup engine: match semantics and the indexed fast path.

This module owns the two halves of rule matching:

* the *reference semantics* — :class:`MatchKind`, :class:`MatchField` and
  :func:`_match_one`, the per-field predicates every lookup path agrees on;
* :class:`LookupIndex`, a tuple-space-search style index that answers
  "which installed entry wins for this packet" in time proportional to the
  number of distinct match *shapes* rather than the number of entries.

Real switch ASICs classify at line rate with TCAM/hash units; a Python
simulator that linearly scans every resident entry per packet per stage per
pass cannot approximate that under the paper's multi-tenant scale, where one
physical table holds the rules of thousands of tenants prefixed with
``(tenant_id, pass_id)`` exact fields (Fig. 3).  The index exploits exactly
that structure:

* Entries are grouped by **shape** — which *non-range* key fields they
  constrain and with what mask: an exact field contributes its value, an
  LPM field its ``(prefix & mask)`` under the prefix mask, a ternary field
  its ``(want & mask)``.  Within a shape, a single dict probe on the
  packet's masked field values yields only entries whose exact / LPM /
  ternary components all match (masked equality is the match predicate for
  all three kinds), kept sorted by the table's ranking.  Per-tenant rules
  all share a handful of shapes, so a million-entry table still costs a few
  dict probes.
* Range specs are not masked equality, so they are checked *inside* the
  bucket: the bucket is scanned in rank order testing the range predicates
  alone, stopping at the first entry that passes — or as soon as the best
  candidate from another shape already outranks what is left.  An entry
  without a range spec passes at once, so a range-free bucket costs its
  head.  Because ``(tenant_id, pass_id)`` are part of the shape like any
  other exact field, a packet only ever scans range rules of its own
  tenant and pass.

The ranking is identical to the reference linear scan: priority descending,
then total LPM prefix length descending (standard P4 longest-prefix
semantics), then insertion order.  ``order`` is a monotonically increasing
sequence number assigned by the owning table; the index never invents
tie-breaks of its own, which is what lets the differential harness
(``tests/dataplane/test_differential_lookup.py``) assert bit-for-bit
agreement with the linear oracle.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from dataclasses import dataclass
from typing import Sequence

from repro.dataplane.packet import MATCHABLE_FIELDS, Packet
from repro.errors import DataPlaneError


class MatchKind(enum.Enum):
    """P4 match kinds supported by the MAU model."""

    EXACT = "exact"
    TERNARY = "ternary"  # value/mask
    LPM = "lpm"          # value/prefix_len over 32-bit fields
    RANGE = "range"      # [lo, hi] inclusive


@dataclass(frozen=True)
class MatchField:
    """One component of a table's match key."""

    name: str
    kind: MatchKind

    def __post_init__(self) -> None:
        if self.name not in MATCHABLE_FIELDS:
            raise DataPlaneError(f"unknown match field {self.name!r}")


def validate_spec(kind: MatchKind, spec) -> None:
    """Reject a malformed match spec at install time.

    Lookup is the per-packet hot path; a bad spec must fail when the rule is
    written (the control plane's mistake), not explode mid-traffic.  ``None``
    wildcards any kind and is always valid.
    """
    if spec is None:
        return
    if kind is MatchKind.EXACT:
        try:
            int(spec)
        except (TypeError, ValueError):
            raise DataPlaneError(
                f"exact spec must be an integer, got {spec!r}"
            ) from None
        return
    try:
        a, b = spec
        a, b = int(a), int(b)
    except (TypeError, ValueError):
        raise DataPlaneError(
            f"{kind.value} spec must be a pair of integers, got {spec!r}"
        ) from None
    if kind is MatchKind.LPM and not 0 <= b <= 32:
        raise DataPlaneError(f"LPM prefix length {b} outside [0, 32]")


def _match_one(kind: MatchKind, spec, value: int) -> bool:
    """Does ``value`` satisfy one field's match spec?

    Spec encodings: EXACT -> int (or None = wildcard); TERNARY ->
    ``(value, mask)``; LPM -> ``(prefix, prefix_len)``; RANGE -> ``(lo, hi)``.
    ``None`` wildcards any kind.  Specs are validated once at insert time
    (:func:`validate_spec`), so this predicate stays branch-light.
    """
    if spec is None:
        return True
    if kind is MatchKind.EXACT:
        return value == int(spec)
    if kind is MatchKind.TERNARY:
        want, mask = spec
        return (value & mask) == (want & mask)
    if kind is MatchKind.LPM:
        prefix, length = spec
        if length == 0:
            return True
        mask = ((1 << length) - 1) << (32 - length)
        return (value & mask) == (prefix & mask)
    if kind is MatchKind.RANGE:
        lo, hi = spec
        return lo <= value <= hi
    raise DataPlaneError(f"unhandled match kind {kind}")  # pragma: no cover


class _ShapeGroup:
    """All indexed entries sharing one match shape.

    ``extractors`` holds ``(field_position, mask)`` pairs for the non-range
    fields the shape constrains — ``mask is None`` means exact (compare the
    raw value).  ``buckets`` maps the tuple of masked packet values to the
    entries whose masked specs equal it, as ``(sortkey, entry, ranges)``
    sorted ascending by sort key (best rank first); ``ranges`` are the
    entry's ``(field_position, lo, hi)`` range predicates, the only thing
    left to check inside the bucket.
    """

    __slots__ = ("extractors", "buckets")

    def __init__(self, extractors: tuple) -> None:
        self.extractors = extractors
        self.buckets: dict[tuple, list] = {}


class LookupIndex:
    """Incremental fast-path index over one table's entries.

    The owning table calls :meth:`add` / :meth:`remove` with the entry's
    insertion-order sequence number on every mutation and :meth:`lookup` per
    packet; :meth:`clear` supports wholesale rebuilds (rollback restore).
    """

    def __init__(self, key: Sequence[MatchField]) -> None:
        self.key = tuple(key)
        #: shape (= extractor tuple) -> group of hash buckets.
        self._groups: dict[tuple, _ShapeGroup] = {}

    # -- classification ----------------------------------------------------
    def _classify(self, entry) -> tuple[tuple, tuple, tuple]:
        """``(extractors, masked_values, ranges)``: the entry's shape and
        bucket from its non-range fields, and its range predicates."""
        extractors = []
        values = []
        ranges = []
        for pos, f in enumerate(self.key):
            spec = entry.match.get(f.name)
            if spec is None:
                continue
            if f.kind is MatchKind.EXACT:
                extractors.append((pos, None))
                values.append(int(spec))
            elif f.kind is MatchKind.LPM:
                prefix, length = spec
                if length == 0:
                    continue  # /0 matches everything: a wildcard
                mask = ((1 << length) - 1) << (32 - length)
                extractors.append((pos, mask))
                values.append(prefix & mask)
            elif f.kind is MatchKind.TERNARY:
                want, mask = spec
                if mask == 0:
                    continue  # mask 0 matches everything: a wildcard
                extractors.append((pos, mask))
                values.append(want & mask)
            else:  # RANGE: not masked equality, checked inside the bucket
                ranges.append((pos, spec[0], spec[1]))
        return tuple(extractors), tuple(values), tuple(ranges)

    def _lpm_specificity(self, entry) -> int:
        total = 0
        for f in self.key:
            if f.kind is MatchKind.LPM:
                spec = entry.match.get(f.name)
                if spec is not None:
                    total += int(spec[1])
        return total

    def _sortkey(self, entry, order: int) -> tuple[int, int, int]:
        """Ascending sort key mirroring the rank ``(priority desc, LPM
        specificity desc, insertion order asc)``; unique per ``order``."""
        return (-int(entry.priority), -self._lpm_specificity(entry), order)

    # -- maintenance -------------------------------------------------------
    def add(self, entry, order: int) -> None:
        """Index ``entry`` installed with sequence number ``order``."""
        extractors, values, ranges = self._classify(entry)
        group = self._groups.get(extractors)
        if group is None:
            group = _ShapeGroup(extractors)
            self._groups[extractors] = group
        # ``(sortkey,)`` sorts before every item with that (unique) key.
        bucket = group.buckets.setdefault(values, [])
        sortkey = self._sortkey(entry, order)
        bucket.insert(bisect_left(bucket, (sortkey,)), (sortkey, entry, ranges))

    def remove(self, entry, order: int) -> None:
        """Un-index the entry previously added with ``order``."""
        sortkey = self._sortkey(entry, order)
        extractors, values, _ranges = self._classify(entry)
        group = self._groups.get(extractors)
        bucket = group.buckets.get(values) if group is not None else None
        if bucket is None:
            raise DataPlaneError("index out of sync: entry not indexed")
        i = bisect_left(bucket, (sortkey,))
        if not (i < len(bucket) and bucket[i][0] == sortkey and bucket[i][1] is entry):
            raise DataPlaneError("index out of sync: entry not indexed")
        del bucket[i]
        if not bucket:
            del group.buckets[values]
            if not group.buckets:
                del self._groups[extractors]

    def clear(self) -> None:
        """Drop every indexed entry (rebuild support)."""
        self._groups.clear()

    # -- lookup ------------------------------------------------------------
    def lookup(self, packet: Packet):
        """The winning entry for ``packet``, or ``None`` on a table miss.

        One dict probe per shape; inside the bucket a rank-ordered scan of
        the range predicates alone, which stops at the first entry that
        passes or that the best candidate so far already outranks (an
        entry with no range spec passes at once: the bucket head).
        """
        values = [packet.get_field(f.name) for f in self.key]
        best_key = None
        best_entry = None
        for group in self._groups.values():
            probe = tuple(
                values[pos] if mask is None else values[pos] & mask
                for pos, mask in group.extractors
            )
            bucket = group.buckets.get(probe)
            if not bucket:
                continue
            for sortkey, entry, ranges in bucket:
                if best_key is not None and sortkey >= best_key:
                    break  # rank-sorted: nothing further can win
                for pos, lo, hi in ranges:
                    if not lo <= values[pos] <= hi:
                        break
                else:
                    best_key, best_entry = sortkey, entry
                    break  # first match in a bucket is the bucket's best
        return best_entry

    # -- introspection -----------------------------------------------------
    @property
    def num_shapes(self) -> int:
        return len(self._groups)

    def __len__(self) -> int:
        return sum(len(b) for g in self._groups.values() for b in g.buckets.values())
