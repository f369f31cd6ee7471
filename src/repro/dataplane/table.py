"""Match-action tables.

A :class:`MatchActionTable` models one P4 table as installed in an MAU:
a typed match key (exact / ternary / LPM / range per field), prioritized
entries, and a default action.  This is the unit the SFP data plane
virtualizes: physical NFs prepend ``tenant_id`` (exact) and ``pass_id``
(exact) fields to their match key so one physical table hosts many tenants'
logical NFs (Fig. 3).

Entries are held by their insert order — ``order -> entry`` rows, split into
per-tenant partitions — so a write costs what it writes: an insert files one
row, a delete pops one through the entry's order, and :meth:`undo` takes a
failed batch back by re-filing each entry under its original order.

Lookups run on an indexed fast path by default — one tuple-space-search
index (:mod:`repro.dataplane.lookup_index`) per partition, built by the
first lookup that reaches the partition and maintained incrementally from
then on — while :meth:`MatchActionTable.lookup_reference` keeps the naive
linear scan alive as the semantic oracle the differential test harness
checks the index against.  Construct with ``indexed=False`` to force a table
onto the reference path wholesale.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from typing import Mapping, Sequence

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
        self._fields = {f.name: f for f in self.key}
        self.default_action = default_action
        self.default_params = dict(default_params or {})
        self.max_entries = max_entries
        #: Lookup statistics (hit = entry matched, miss = default action).
        self.hits = 0
        self.misses = 0
        #: Whether lookups take the indexed fast path (False = oracle mode).
        self.indexed = bool(indexed)
        #: Monotonic rule-churn counter: bumped on every entry mutation
        #: (insert, delete, undo).  Nothing compares it; it is the clock
        #: the per-partition generations below are stamped from.
        self.generation = 0
        #: Position of the exact ``tenant_id`` key field (``None``: no such
        #: field, so the table is one shared partition).
        tenant = self._fields.get("tenant_id")
        exact = tenant is not None and tenant.kind is MatchKind.EXACT
        self._tenant_pos = self.key.index(tenant) if exact else None
        #: Insert order -> entry, ascending: the installed rules.
        self._rows: dict[int, TableEntry] = {}
        #: The rows partitioned by the exact ``tenant_id`` component of
        #: their match — ``partition key -> {insert order: entry}``; ``None``
        #: is the shared partition (wildcard tenant, or a key without an
        #: exact ``tenant_id``) — the paper's layout: one physical table,
        #: each tenant's rules a block of it.
        self._parts: dict[int | None, dict[int, TableEntry]] = {}
        #: Partition key -> :attr:`generation` at its last mutation (absent
        #: = empty = 0).  The compiled fast path (:mod:`repro.fastpath`)
        #: records the generations of the partitions a tenant's blocks were
        #: read from: what it cached is current iff they are unchanged.
        self._part_gens: dict[int | None, int] = {}
        #: Partition key -> its lookup index, for the partitions a lookup
        #: has reached; dropped when the partition empties.
        self._indexes: dict[int | None, LookupIndex] = {}
        #: Monotonic sequence assigned per insert; the rank tie-break.
        self._seq = 0
        #: id(entry) -> its live sequence numbers, oldest first (an entry
        #: object may legitimately be installed more than once).
        self._orders: dict[int, list[int]] = {}

    @property
    def key_fields(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.key)

    @property
    def entries(self) -> list[TableEntry]:
        """The installed entries, oldest first (a copy)."""
        return list(self._rows.values())

    @property
    def num_entries(self) -> int:
        return len(self._rows)

    def _validate(self, entry: TableEntry) -> None:
        for fname, spec in entry.match.items():
            f = self._fields.get(fname)
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
    def _partition_key(self, entry: TableEntry) -> int | None:
        """The partition ``entry`` lives in: its exact ``tenant_id``, or
        ``None`` (shared) when it wildcards the tenant or the key has no
        exact ``tenant_id`` field."""
        spec = None if self._tenant_pos is None else entry.match.get("tenant_id")
        return None if spec is None else int(spec)

    def partition(self, key: int | None) -> list[tuple[int, TableEntry]]:
        """``(insert order, entry)`` of one partition, oldest first."""
        return list(self._parts.get(key, {}).items())

    def partition_generation(self, key: int | None) -> int:
        """Changes whenever the partition's content does; 0 = empty."""
        return self._part_gens.get(key, 0)

    # -- mutation ----------------------------------------------------------
    def _put(self, entry: TableEntry, order: int, key: int | None) -> None:
        """File ``entry`` under ``order`` in partition ``key`` (row, order
        bookkeeping, partition, and the partition's index if built)."""
        self._rows[order] = entry
        insort(self._orders.setdefault(id(entry), []), order)
        self._parts.setdefault(key, {})[order] = entry
        self.generation += 1
        self._part_gens[key] = self.generation
        index = self._indexes.get(key)
        if index is not None:
            index.add(entry, order)

    def _take(self, order: int, key: int | None) -> None:
        """Remove the row filed under ``order`` in partition ``key``;
        an emptied partition loses its generation and its index."""
        entry = self._rows.pop(order)
        orders = self._orders[id(entry)]
        orders.remove(order)
        if not orders:
            del self._orders[id(entry)]
        part = self._parts[key]
        del part[order]
        self.generation += 1
        if part:
            self._part_gens[key] = self.generation
            index = self._indexes.get(key)
            if index is not None:
                index.remove(order)
        else:
            del self._parts[key], self._part_gens[key]
            self._indexes.pop(key, None)

    def _append(self, entry: TableEntry) -> tuple:
        order = self._seq
        self._seq += 1
        key = self._partition_key(entry)
        self._put(entry, order, key)
        return (True, entry, order, key)

    def insert(self, entry: TableEntry) -> tuple:
        """Install a rule (P4Runtime INSERT); returns the record
        :meth:`undo` takes it back with.

        Malformed match specs are rejected here, once, rather than on the
        per-packet lookup path.
        """
        self._validate(entry)
        if self.max_entries is not None and len(self._rows) >= self.max_entries:
            raise DataPlaneError(
                f"table {self.name!r} full ({self.max_entries} entries)"
            )
        return self._append(entry)

    def insert_many(self, entries: Sequence[TableEntry]) -> None:
        """Install several rules in order, atomically: validation and the
        capacity check run up front, so a bad batch leaves the table (and
        its lookup indexes) untouched."""
        entries = list(entries)
        for entry in entries:
            self._validate(entry)
        if (
            self.max_entries is not None
            and len(self._rows) + len(entries) > self.max_entries
        ):
            raise DataPlaneError(
                f"table {self.name!r} full ({self.max_entries} entries)"
            )
        for entry in entries:
            self._append(entry)

    def delete(self, entry: TableEntry) -> tuple:
        """Remove a previously installed rule (P4Runtime DELETE); returns
        the record :meth:`undo` puts it back with.

        Removes the oldest copy of the *identical* object (what install
        bookkeeping holds) through its order, comparing no entries; an
        equal but non-identical rule falls back to the oldest equal entry
        of its own partition.  Either way the entries before it keep their
        insertion-order tie-break.
        """
        orders = self._orders.get(id(entry))
        if orders is None:
            try:
                part = self._parts.get(self._partition_key(entry), {})
            except (TypeError, ValueError):  # a malformed spec: installed nowhere
                part = {}
            entry = next((e for e in part.values() if e == entry), None)
            if entry is None:
                raise DataPlaneError(
                    f"table {self.name!r}: entry not present for delete"
                )
            orders = self._orders[id(entry)]
        order, key = orders[0], self._partition_key(entry)
        self._take(order, key)
        return (False, entry, order, key)

    def undo(self, records: Sequence[tuple]) -> None:
        """Take back ``records`` — what :meth:`insert` and :meth:`delete`
        returned, oldest first — newest first: an insert is removed, a
        delete is re-filed under its original order, so rule ids and
        insertion-order tie-breaks come back exactly.  The partitions
        touched get fresh generations (stamps are never reissued, so what
        was compiled from the transient content cannot pass for current);
        every other partition keeps its own.  Hit/miss counters are left
        alone (traffic really happened)."""
        refiled = set()
        for inserted, entry, order, key in reversed(records):
            if inserted:
                self._take(order, key)
            else:
                self._put(entry, order, key)
                refiled.add(key)
        if refiled:
            # Re-filed rows went in at the dict tails: back to ascending.
            self._rows = dict(sorted(self._rows.items()))
            for key in refiled:
                part = self._parts.get(key)
                if part:
                    self._parts[key] = dict(sorted(part.items()))

    def entry_id(self, entry: TableEntry) -> int | None:
        """The stable per-table rule id of an installed entry: its insert
        sequence number (oldest copy when installed more than once), the
        same order the lookup tie-break ranks on.  ``None`` when the entry
        is not installed — telemetry postcards record this as the matched
        rule id."""
        orders = self._orders.get(id(entry))
        return orders[0] if orders else None

    # -- lookup ------------------------------------------------------------
    def _probe(self, key: int | None, values: list[int], best):
        """``best`` merged with partition ``key``'s winner (see
        :meth:`LookupIndex.lookup`), building the partition's index on the
        first lookup that reaches it."""
        index = self._indexes.get(key)
        if index is None:
            part = self._parts.get(key)
            if part is None:
                return best
            index = LookupIndex(self.key)
            for order, entry in list(part.items()):
                index.add(entry, order)
            self._indexes[key] = index  # published whole, never half-built
        return index.lookup(values, best)

    def lookup(self, packet: Packet) -> tuple[TableEntry | None, str, Mapping[str, object]]:
        """Find the winning entry for ``packet``.

        Returns ``(entry, action, params)``; ``entry`` is ``None`` on a miss
        (default action).  Match semantics: all key fields must match;
        priority desc, then LPM specificity desc, then insertion order.
        Runs on the indexes of the packet's tenant partition and the shared
        one, merged by rank, when enabled; :meth:`lookup_reference` is the
        always-available linear oracle with identical semantics.
        """
        if not self.indexed:
            return self.lookup_reference(packet)
        values = [packet.get_field(f.name) for f in self.key]
        best = None
        if self._tenant_pos is not None:
            best = self._probe(values[self._tenant_pos], values, None)
        best = self._probe(None, values, best)
        if best is None:
            self.misses += 1
            return None, self.default_action, self.default_params
        self.hits += 1
        entry = best[1]
        return entry, entry.action, entry.params

    def lookup_reference(self, packet: Packet) -> tuple[TableEntry | None, str, Mapping[str, object]]:
        """The reference linear scan (the oracle the index is tested
        against).  Updates the same hit/miss counters as :meth:`lookup`."""
        best: TableEntry | None = None
        best_rank: tuple[int, int, int] | None = None
        for order, entry in self._rows.items():
            if not all(
                _match_one(f.kind, entry.match.get(f.name), packet.get_field(f.name))
                for f in self.key
            ):
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
