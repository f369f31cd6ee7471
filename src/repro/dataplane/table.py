"""Match-action tables.

A :class:`MatchActionTable` models one P4 table as installed in an MAU:
a typed match key (exact / ternary / LPM / range per field), prioritized
entries, and a default action.  This is the unit the SFP data plane
virtualizes: physical NFs prepend ``tenant_id`` (exact) and ``pass_id``
(exact) fields to their match key so one physical table hosts many tenants'
logical NFs (Fig. 3).

Lookups run on an indexed fast path by default — a tuple-space-search index
(:mod:`repro.dataplane.lookup_index`) maintained incrementally through every
mutation — while :meth:`MatchActionTable.lookup_reference` keeps the naive
linear scan alive as the semantic oracle the differential test harness
checks the index against.  Construct with ``indexed=False`` to force a table
onto the reference path wholesale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from repro.dataplane.lookup_index import (  # re-exported: historical home
    LookupIndex,
    MatchField,
    MatchKind,
    _match_one,
    validate_spec,
)
from repro.dataplane.packet import Packet
from repro.errors import DataPlaneError

__all__ = [
    "MatchActionTable",
    "MatchField",
    "MatchKind",
    "TableEntry",
    "validate_spec",
]


@dataclass(frozen=True)
class TableEntry:
    """One rule: per-field match specs, a priority, and an action binding.

    ``match`` maps field name -> spec (see
    :func:`~repro.dataplane.lookup_index._match_one`); fields omitted from
    the mapping are wildcards.  Higher ``priority`` wins; among equal
    priorities, for LPM fields the longest prefix wins (standard P4
    semantics), then insertion order.
    """

    match: Mapping[str, object]
    action: str
    params: Mapping[str, object] = field(default_factory=dict)
    priority: int = 0

    def lpm_specificity(self, key: Sequence[MatchField]) -> int:
        """Total LPM prefix length (tie-break for equal priorities)."""
        total = 0
        for f in key:
            spec = self.match.get(f.name)
            if f.kind is MatchKind.LPM and spec is not None:
                total += int(spec[1])
        return total


class MatchActionTable:
    """A physical table instance resident in one MAU stage."""

    def __init__(
        self,
        name: str,
        key: Sequence[MatchField],
        default_action: str = "no_op",
        default_params: Mapping[str, object] | None = None,
        max_entries: int | None = None,
        indexed: bool = True,
    ) -> None:
        if not name:
            raise DataPlaneError("table needs a name")
        names = [f.name for f in key]
        if len(set(names)) != len(names):
            raise DataPlaneError(f"table {name!r}: duplicate match fields {names}")
        self.name = name
        self.key = tuple(key)
        self.default_action = default_action
        self.default_params = dict(default_params or {})
        self.max_entries = max_entries
        self.entries: list[TableEntry] = []
        #: Lookup statistics (hit = entry matched, miss = default action).
        self.hits = 0
        self.misses = 0
        #: Whether lookups take the indexed fast path (False = oracle mode).
        self.indexed = bool(indexed)
        self._index: LookupIndex | None = (
            LookupIndex(self.key) if self.indexed else None
        )
        #: Monotonic rule-churn counter: bumped on every entry mutation
        #: (insert, delete, restore).  Nothing compares it; it is the clock
        #: the per-partition generations below are stamped from.
        self.generation = 0
        #: The entries partitioned by the exact ``tenant_id`` component of
        #: their match — ``partition key -> {insert order: entry}``; ``None``
        #: is the shared partition (wildcard tenant, or a key without an
        #: exact ``tenant_id``) — the paper's layout: one physical table,
        #: each tenant's rules a block of it.
        self._tenant_exact = any(
            f.name == "tenant_id" and f.kind is MatchKind.EXACT for f in self.key
        )
        self._parts: dict[int | None, dict[int, TableEntry]] = {}
        #: Partition key -> :attr:`generation` at its last mutation (absent
        #: = empty = 0).  The compiled fast path (:mod:`repro.fastpath`)
        #: records the generations of the partitions a tenant's blocks were
        #: read from: what it cached is current iff they are unchanged.
        self._part_gens: dict[int | None, int] = {}
        #: Monotonic sequence assigned per insert; the rank tie-break.
        self._seq = 0
        #: id(entry) -> its live sequence numbers, oldest first (an entry
        #: object may legitimately be installed more than once).
        self._orders: dict[int, list[int]] = {}

    @property
    def key_fields(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.key)

    @property
    def num_entries(self) -> int:
        return len(self.entries)

    def _validate(self, entry: TableEntry) -> None:
        by_name = {f.name: f for f in self.key}
        for fname, spec in entry.match.items():
            f = by_name.get(fname)
            if f is None:
                raise DataPlaneError(
                    f"table {self.name!r}: entry matches unknown field {fname!r} "
                    f"(key = {self.key_fields})"
                )
            try:
                validate_spec(f.kind, spec)
            except DataPlaneError as exc:
                raise DataPlaneError(
                    f"table {self.name!r}: bad {fname!r} spec: {exc}"
                ) from None

    # -- partitions --------------------------------------------------------
    def partition_key(self, entry: TableEntry) -> int | None:
        """The partition ``entry`` lives in: its exact ``tenant_id``, or
        ``None`` (shared) when it wildcards the tenant or the key has no
        exact ``tenant_id`` field."""
        spec = entry.match.get("tenant_id") if self._tenant_exact else None
        return None if spec is None else int(spec)

    def partition(self, key: int | None) -> list[tuple[int, TableEntry]]:
        """``(insert order, entry)`` of one partition, oldest first."""
        return list(self._parts.get(key, {}).items())

    def partition_generation(self, key: int | None) -> int:
        """Changes whenever the partition's content does; 0 = empty."""
        return self._part_gens.get(key, 0)

    # -- mutation ----------------------------------------------------------
    def _append(self, entry: TableEntry) -> None:
        """Install a validated, capacity-checked entry (list + partition +
        index)."""
        self.generation += 1
        self.entries.append(entry)
        order = self._seq
        self._seq += 1
        self._orders.setdefault(id(entry), []).append(order)
        key = self.partition_key(entry)
        self._parts.setdefault(key, {})[order] = entry
        self._part_gens[key] = self.generation
        if self._index is not None:
            self._index.add(entry, order)

    def _forget(self, entry: TableEntry) -> None:
        """Drop the oldest installed copy of ``entry`` from the partition,
        index and order bookkeeping (the caller already removed it from
        ``entries``)."""
        self.generation += 1
        orders = self._orders[id(entry)]
        order = orders.pop(0)
        if not orders:
            del self._orders[id(entry)]
        key = self.partition_key(entry)
        part = self._parts[key]
        del part[order]
        if part:
            self._part_gens[key] = self.generation
        else:
            del self._parts[key], self._part_gens[key]
        if self._index is not None:
            self._index.remove(entry, order)

    def insert(self, entry: TableEntry) -> None:
        """Install a rule (P4Runtime INSERT).

        Malformed match specs are rejected here, once, rather than on the
        per-packet lookup path.
        """
        self._validate(entry)
        if self.max_entries is not None and self.num_entries >= self.max_entries:
            raise DataPlaneError(
                f"table {self.name!r} full ({self.max_entries} entries)"
            )
        self._append(entry)

    def insert_many(self, entries: Sequence[TableEntry]) -> None:
        """Install several rules in order, atomically: validation and the
        capacity check run up front, so a bad batch leaves the table (and
        its index) untouched."""
        entries = list(entries)
        for entry in entries:
            self._validate(entry)
        if (
            self.max_entries is not None
            and self.num_entries + len(entries) > self.max_entries
        ):
            raise DataPlaneError(
                f"table {self.name!r} full ({self.max_entries} entries)"
            )
        for entry in entries:
            self._append(entry)

    def delete(self, entry: TableEntry) -> None:
        """Remove a previously installed rule (P4Runtime DELETE).

        Prefers removing the *identical* object (what install bookkeeping
        holds), falling back to the first equal entry — so deleting a
        specific duplicate never disturbs the insertion-order tie-break of
        the entries before it.
        """
        for i, existing in enumerate(self.entries):
            if existing is entry:
                del self.entries[i]
                self._forget(existing)
                return
        for i, existing in enumerate(self.entries):
            if existing == entry:
                del self.entries[i]
                self._forget(existing)
                return
        raise DataPlaneError(f"table {self.name!r}: entry not present for delete")

    def delete_where(self, **match_fields: object) -> int:
        """Delete all entries whose match spec contains the given field
        values exactly (used for per-tenant teardown); returns the count."""
        kept: list[TableEntry] = []
        removed: list[TableEntry] = []
        for e in self.entries:
            if all(e.match.get(k) == v for k, v in match_fields.items()):
                removed.append(e)
            else:
                kept.append(e)
        self.entries = kept
        for e in removed:
            self._forget(e)
        return len(removed)

    # -- rollback support --------------------------------------------------
    def snapshot(self) -> tuple[TableEntry, ...]:
        """The installed entries, in order, for later :meth:`restore`."""
        return tuple(self.entries)

    def restore(self, snapshot: Iterable[TableEntry], since: int = -1) -> None:
        """Reset the table to a prior :meth:`snapshot`, rebuilding the index
        so insertion-order tie-breaks are exactly as captured.  Hit/miss
        counters are left alone (traffic really happened).

        ``since`` is :attr:`generation` as it was when the snapshot was
        taken: a partition not written since then keeps its generation —
        what was compiled from it is still current, so a rolled-back batch
        costs only the tenants it touched a recompile.  Every other
        partition (every one, by default) is freshly stamped."""
        untouched = {k: g for k, g in self._part_gens.items() if g <= since}
        self.generation += 1
        self.entries = []
        self._seq = 0
        self._orders = {}
        self._parts = {}
        self._part_gens = {}
        if self._index is not None:
            self._index.clear()
        for entry in snapshot:
            self._append(entry)
        self._part_gens.update(untouched)

    def entry_id(self, entry: TableEntry) -> int | None:
        """The stable per-table rule id of an installed entry: its insert
        sequence number (oldest copy when installed more than once), the
        same order the lookup tie-break ranks on.  ``None`` when the entry
        is not installed — telemetry postcards record this as the matched
        rule id."""
        orders = self._orders.get(id(entry))
        return orders[0] if orders else None

    # -- lookup ------------------------------------------------------------
    def lookup(self, packet: Packet) -> tuple[TableEntry | None, str, Mapping[str, object]]:
        """Find the winning entry for ``packet``.

        Returns ``(entry, action, params)``; ``entry`` is ``None`` on a miss
        (default action).  Match semantics: all key fields must match;
        priority desc, then LPM specificity desc, then insertion order.
        Runs on the index when enabled; :meth:`lookup_reference` is the
        always-available linear oracle with identical semantics.
        """
        if self._index is None:
            return self.lookup_reference(packet)
        best = self._index.lookup(packet)
        if best is None:
            self.misses += 1
            return None, self.default_action, self.default_params
        self.hits += 1
        return best, best.action, best.params

    def lookup_reference(self, packet: Packet) -> tuple[TableEntry | None, str, Mapping[str, object]]:
        """The reference linear scan (the oracle the index is tested
        against).  Updates the same hit/miss counters as :meth:`lookup`."""
        best: TableEntry | None = None
        best_rank: tuple[int, int, int] | None = None
        for order, entry in enumerate(self.entries):
            ok = True
            for f in self.key:
                if not _match_one(f.kind, entry.match.get(f.name), packet.get_field(f.name)):
                    ok = False
                    break
            if not ok:
                continue
            rank = (entry.priority, entry.lpm_specificity(self.key), -order)
            if best_rank is None or rank > best_rank:
                best, best_rank = entry, rank
        if best is None:
            self.misses += 1
            return None, self.default_action, self.default_params
        self.hits += 1
        return best, best.action, best.params

    def __repr__(self) -> str:
        return (
            f"MatchActionTable({self.name!r}, key={list(self.key_fields)}, "
            f"entries={self.num_entries})"
        )
