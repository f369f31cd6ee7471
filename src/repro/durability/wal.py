"""The write-ahead log: an append-only JSONL journal of committed ops.

Every committed control-plane operation (admit / evict / modify / drain /
stitch / reconfigure) lands here as one line::

    {"crc": <crc32>, "rec": {"lsn": N, "op": "admit", "data": {...}}}

with a monotonic log sequence number (LSN), a CRC32 over the canonical JSON
of the record, and an fsync policy decided at construction:

``always``
    fsync after every append — the record is durable before the operation's
    result is returned (durability-before-acknowledgment).
``batch``
    fsync every ``batch_every`` appends (and on :meth:`sync` /
    :meth:`close`); a crash can lose at most one batch of acknowledged ops.
``off``
    never fsync except on clean :meth:`close` — fastest, weakest.

Opening an existing log performs **torn-tail truncation**: records are
scanned in order and the file is cut back to the last byte of the longest
valid prefix (a half-written line from a crash mid-append, a CRC mismatch
from on-disk corruption, or an LSN discontinuity all end the prefix).  The
recovery engine therefore always sees a clean, gap-free sequence of records.

Compaction (:meth:`compact`, driven by checkpoints) atomically rewrites the
log keeping only records past the checkpoint LSN.  It copies their bytes as
they are — the log knows where each line it wrote or validated ends — so a
record corrupted on disk after it was written stays in the file for the
next open to find, instead of ending the kept tail silently.  LSNs survive
compaction: the first line of every log file is a ``_header`` record
carrying the base LSN the file continues from.

The log is **thread-safe** and implements **leader-based group commit**:
concurrent committers under ``fsync="always"`` each append under the log
mutex, then wait until their bytes are durable — the first waiter becomes
the *sync leader*, performs one ``fdatasync`` covering every append made so
far (the GIL is released during the syscall, so other committers keep
appending meanwhile), and wakes everyone whose offset the sync covered.
``N`` concurrent committers therefore share ``~1`` sync instead of paying
``N`` — the amortization the concurrent control-plane front end
(:mod:`repro.frontend`) is built on, with unchanged
durability-before-acknowledgment semantics.

For high availability (:mod:`repro.ha`) every record is additionally
stamped with the writer's **epoch** — the monotonic fencing token of the
lease reign that committed it (0 when HA is not in play; old logs without
the field parse as epoch 0).  A ``fence`` guard installed on the log is
checked at the top of every :meth:`append`, so a deposed primary's
appends raise :class:`~repro.errors.FencedError` *before* allocating an
LSN — a fenced node cannot journal, therefore cannot acknowledge.
:class:`WalTailer` is the shipping side's incremental reader: it follows
the log file across appends and compactions and reports a *gap* when
records it never saw were compacted away (the signal to resync from a
checkpoint).
"""

from __future__ import annotations

import json
import os
import threading
import zlib
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

from repro.errors import DurabilityError, FencedError

#: fsync policies accepted by :class:`WriteAheadLog`.
FSYNC_POLICIES = ("always", "batch", "off")

#: Reserved op name of the per-file base-LSN header record.
HEADER_OP = "_header"

#: On-disk format version written into every header record.  2 = digests
#: over integer bits/s; a version-1 file's records replay to the same state
#: but their digests cannot be compared.
WAL_VERSION = 2


@dataclass(frozen=True)
class WalRecord:
    """One committed log record: LSN, op name, the op's JSON payload, and
    the fencing epoch of the lease reign that wrote it (0 = no HA)."""

    lsn: int
    op: str
    data: dict
    epoch: int = 0

    def to_line(self) -> bytes:
        """The record's on-disk line (CRC envelope + trailing newline)."""
        body = _canonical(
            {
                "lsn": self.lsn,
                "op": self.op,
                "data": self.data,
                "epoch": self.epoch,
            }
        )
        crc = zlib.crc32(body.encode("utf-8"))
        return f'{{"crc":{crc},"rec":{body}}}\n'.encode("utf-8")


def _header_line(base_lsn: int) -> bytes:
    """The first line of a log file continuing from ``base_lsn``."""
    return WalRecord(
        lsn=base_lsn,
        op=HEADER_OP,
        data={"version": WAL_VERSION, "base_lsn": base_lsn},
    ).to_line()


def _canonical(payload: object) -> str:
    """Canonical JSON: sorted keys, no whitespace — the CRC's input."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class WalScan:
    """Result of scanning a log file for its longest valid prefix."""

    base_lsn: int
    records: tuple[WalRecord, ...]
    good_offset: int
    dropped_bytes: int
    problems: tuple[str, ...]
    #: Format version the file's header declares.
    version: int = WAL_VERSION
    #: Byte offset past each valid line, the header's first.
    ends: tuple[int, ...] = ()

    @property
    def last_lsn(self) -> int:
        return self.records[-1].lsn if self.records else self.base_lsn


def scan_wal(path: str | Path) -> WalScan:
    """Scan a log file, returning the longest valid record prefix.

    The scan stops at the first invalid line — unparseable JSON (torn
    tail), CRC mismatch (corruption), missing trailing newline (partial
    write), or a non-contiguous LSN — and reports how many tail bytes lie
    beyond the valid prefix.  A missing or invalid *header* line yields an
    empty scan with a problem string (the file cannot be trusted at all).
    """
    path = Path(path)
    if not path.exists():
        return WalScan(0, (), 0, 0, ())
    raw = path.read_bytes()
    offset = 0
    base_lsn: int | None = None
    version = WAL_VERSION
    records: list[WalRecord] = []
    ends: list[int] = []
    problems: list[str] = []
    last_lsn = 0
    while offset < len(raw):
        newline = raw.find(b"\n", offset)
        if newline < 0:
            problems.append(f"torn tail: partial line at byte {offset}")
            break
        line = raw[offset : newline + 1]
        record = _parse_line(line)
        if record is None:
            problems.append(f"invalid record at byte {offset}")
            break
        if record.op == HEADER_OP:
            if base_lsn is not None or records:
                problems.append(f"unexpected header record at byte {offset}")
                break
            base_lsn = int(record.data.get("base_lsn", record.lsn))
            version = int(record.data.get("version", 1))
            last_lsn = base_lsn
        else:
            if base_lsn is None:
                problems.append("log does not start with a header record")
                break
            if record.lsn != last_lsn + 1:
                problems.append(
                    f"LSN discontinuity at byte {offset}: "
                    f"{record.lsn} after {last_lsn}"
                )
                break
            records.append(record)
            last_lsn = record.lsn
        offset = newline + 1
        ends.append(offset)
    if base_lsn is None:
        # Header unreadable: nothing in the file can be trusted.
        return WalScan(0, (), 0, len(raw), tuple(problems))
    return WalScan(
        base_lsn=base_lsn,
        records=tuple(records),
        good_offset=offset,
        dropped_bytes=len(raw) - offset,
        problems=tuple(problems),
        version=version,
        ends=tuple(ends),
    )


def _parse_line(line: bytes) -> WalRecord | None:
    """Parse + CRC-verify one line; ``None`` on any mismatch."""
    try:
        outer = json.loads(line)
        crc = int(outer["crc"])
        rec = outer["rec"]
        body = _canonical(rec)
        if zlib.crc32(body.encode("utf-8")) != crc:
            return None
        return WalRecord(
            lsn=int(rec["lsn"]),
            op=str(rec["op"]),
            data=rec["data"],
            epoch=int(rec.get("epoch", 0)),
        )
    except (ValueError, KeyError, TypeError):
        return None


class WriteAheadLog:
    """An append-only, CRC-protected, LSN-sequenced JSONL journal."""

    def __init__(
        self,
        path: str | Path,
        fsync: str = "always",
        batch_every: int = 64,
        fault_hook: Callable[[str], None] | None = None,
        epoch: int = 0,
        fence: Callable[[], None] | None = None,
        start_lsn: int | None = None,
    ) -> None:
        """Open (or create) the log at ``path``.  Opening an existing file
        truncates any torn/corrupt tail back to the longest valid prefix.

        ``fault_hook`` is the fault-injection seam: when set, it is called
        with a site name (``"wal.before-append"``, ``"wal.after-append"``,
        ``"wal.before-fsync"``, ``"wal.after-fsync"``, and the compaction
        rename window ``"wal.compact.before-rename"`` /
        ``"wal.compact.after-rename"``) at each durability boundary and may
        raise to simulate a crash exactly there.

        ``epoch`` stamps every appended record with the writer's fencing
        token; ``fence`` (a callable raising
        :class:`~repro.errors.FencedError`) is checked at the top of every
        append.  ``start_lsn`` seeds a **fresh** file's base LSN — a
        promoted standby continues the primary's LSN sequence this way
        (ignored when the file already holds records).
        """
        if fsync not in FSYNC_POLICIES:
            raise DurabilityError(
                f"unknown fsync policy {fsync!r}; choices: {FSYNC_POLICIES}"
            )
        if batch_every < 1:
            raise DurabilityError("batch_every must be >= 1")
        self.path = Path(path)
        self.fsync_policy = fsync
        self.batch_every = batch_every
        self.fault_hook = fault_hook
        #: Fencing token stamped into every appended record (mutable: a
        #: promotion re-arms the log at the new lease epoch).
        self.epoch = int(epoch)
        #: Optional fence guard, checked before every append.
        self.fence = fence
        # One mutex guards file writes, offsets, and LSN allocation; the
        # condition on top of it coordinates the group-commit sync leader.
        self._cv = threading.Condition()
        self._sync_leader_active = False
        self.path.parent.mkdir(parents=True, exist_ok=True)

        scan = scan_wal(self.path)
        #: Problems found while opening (torn tail, corruption); the tail
        #: beyond the valid prefix was truncated away.
        self.open_problems: tuple[str, ...] = scan.problems
        #: Bytes dropped by torn-tail truncation on open.
        self.truncated_bytes = scan.dropped_bytes
        self._base_lsn = scan.base_lsn
        self.last_lsn = scan.last_lsn
        #: Byte offset past each line in the file: the header's, then that
        #: of record ``_base_lsn + k`` at index ``k`` — where compaction cuts.
        self._ends = array("q", scan.ends)
        if scan.dropped_bytes and self.path.exists():
            with self.path.open("r+b") as fh:
                fh.truncate(scan.good_offset)
                fh.flush()
                os.fsync(fh.fileno())
        fresh = not self.path.exists() or scan.good_offset == 0
        self._fh = self.path.open("ab")
        self._offset = scan.good_offset
        self._durable_offset = scan.good_offset
        self._since_sync = 0
        self.appended = 0
        if fresh:
            if start_lsn is not None:
                self.last_lsn = max(self.last_lsn, int(start_lsn))
            self._write_header(base_lsn=self.last_lsn)
            if self.fsync_policy != "off":
                # A brand-new log file must itself survive power loss:
                # fsync the header bytes *and* the parent directory entry,
                # else a crash could make an acknowledged-empty log vanish.
                os.fsync(self._fh.fileno())
                _fsync_dir(self.path.parent)
                self._durable_offset = self._offset

    # ------------------------------------------------------------------
    @property
    def offset(self) -> int:
        """Byte offset past the last written record."""
        return self._offset

    @property
    def durable_offset(self) -> int:
        """Byte offset guaranteed on stable storage (last fsync)."""
        return self._durable_offset

    def _hook(self, site: str) -> None:
        if self.fault_hook is not None:
            self.fault_hook(site)

    def _write_header(self, base_lsn: int) -> None:
        line = _header_line(base_lsn)
        self._fh.write(line)
        self._fh.flush()
        self._offset += len(line)
        self._base_lsn = base_lsn
        self._ends = array("q", [self._offset])

    # ------------------------------------------------------------------
    def append(self, op: str, data: dict) -> WalRecord:
        """Append one record (the next LSN) and apply the fsync policy.

        Safe to call from concurrent committers: LSN allocation and the
        file write happen under the log mutex, and ``fsync="always"``
        callers return only once their bytes are durable — via the
        group-commit protocol, so concurrent callers share syncs.

        When a ``fence`` guard is installed (HA), it runs first: a deposed
        primary raises :class:`~repro.errors.FencedError` here, before any
        LSN is allocated or byte written — the op is never journaled, so
        it can never be acknowledged."""
        if op == HEADER_OP:
            raise DurabilityError(f"op name {HEADER_OP!r} is reserved")
        if self.fence is not None:
            self.fence()
        self._hook("wal.before-append")
        batch_due = False
        with self._cv:
            record = WalRecord(
                lsn=self.last_lsn + 1, op=op, data=data, epoch=self.epoch
            )
            line = record.to_line()
            # No flush here: the buffer drains on sync/close/abort/records(),
            # so a hot loop pays one write syscall per batch, not per record.
            self._fh.write(line)
            self._offset += len(line)
            self._ends.append(self._offset)
            self.last_lsn = record.lsn
            self.appended += 1
            target = self._offset
            if self.fsync_policy == "batch":
                self._since_sync += 1
                batch_due = self._since_sync >= self.batch_every
        self._hook("wal.after-append")
        if self.fsync_policy == "always":
            self._ensure_durable(target)
        elif batch_due:
            self.sync()
        return record

    def sync(self) -> None:
        """Force everything appended so far onto stable storage.

        Uses ``fdatasync`` where the platform has it (the journal only
        needs its *data* durable; skipping the metadata flush is the
        standard WAL trade, and measurably cheaper on ext4)."""
        with self._cv:
            target = self._offset
        self._ensure_durable(target)

    def _ensure_durable(self, target: int) -> None:
        """Block until byte offset ``target`` is on stable storage.

        Group commit: the first waiter whose target is not yet durable
        becomes the sync leader and performs one flush + ``fdatasync``
        covering every byte appended so far; everyone else waits on the
        condition and is woken when the leader's sync covered them.  The
        GIL is released inside ``fdatasync``, so committers keep appending
        (and queuing behind the *next* sync) while the leader is in the
        kernel — which is exactly what amortizes syncs across workers."""
        while True:
            with self._cv:
                if self._durable_offset >= target:
                    return
                if self._sync_leader_active:
                    self._cv.wait(0.1)
                    continue
                self._sync_leader_active = True
                goal = self._offset
            try:
                self._hook("wal.before-fsync")
                self._fh.flush()
                getattr(os, "fdatasync", os.fsync)(self._fh.fileno())
                with self._cv:
                    self._durable_offset = max(self._durable_offset, goal)
                    self._since_sync = 0
                self._hook("wal.after-fsync")
            finally:
                with self._cv:
                    self._sync_leader_active = False
                    self._cv.notify_all()

    def close(self) -> None:
        """Clean shutdown: flush + fsync, then close the handle."""
        if self._fh.closed:
            return
        self.sync()
        with self._cv:
            self._fh.close()

    def abort(self) -> None:
        """Close the handle *without* syncing — the fault harness's
        simulated process death (buffered-but-unsynced bytes keep whatever
        fate the harness then assigns the file)."""
        with self._cv:
            if not self._fh.closed:
                self._fh.flush()
                self._fh.close()

    # ------------------------------------------------------------------
    def records(self) -> list[WalRecord]:
        """All valid records currently on disk, in LSN order."""
        with self._cv:
            self._fh.flush()
        return list(scan_wal(self.path).records)

    def compact(self, upto_lsn: int) -> int:
        """Drop records with ``lsn <= upto_lsn`` (they are covered by a
        checkpoint), preserving LSN continuity via the file header.  The
        kept records' bytes are copied unparsed behind the new header; the
        rewrite is atomic (tmp + rename + fsync).  Returns the number of
        records dropped."""
        with self._cv:
            self._fh.flush()
            base = max(self._base_lsn, min(upto_lsn, self.last_lsn))
            dropped = base - self._base_lsn
            cut = self._ends[dropped]
            with self.path.open("rb") as src:
                src.seek(cut)
                kept = src.read(self._offset - cut)
            header = _header_line(base)
            tmp = self.path.with_suffix(self.path.suffix + ".tmp")
            with tmp.open("wb") as fh:
                fh.write(header)
                fh.write(kept)
                fh.flush()
                os.fsync(fh.fileno())
            self._fh.close()
            self._hook("wal.compact.before-rename")
            os.replace(tmp, self.path)
            # Crash window: the rename is in the directory's page cache but
            # not yet durable — the dir fsync below closes it.  The hook
            # lets the fault sweep kill the process exactly in between.
            self._hook("wal.compact.after-rename")
            _fsync_dir(self.path.parent)
            self._fh = self.path.open("ab")
            shift = len(header) - cut
            self._ends = array(
                "q", [len(header)] + [end + shift for end in self._ends[dropped + 1:]]
            )
            self._offset = len(header) + len(kept)
            self._durable_offset = self._offset
            self._since_sync = 0
            self._base_lsn = base
            return dropped

    def __len__(self) -> int:
        return len(self.records())

    def __repr__(self) -> str:
        return (
            f"WriteAheadLog(path={str(self.path)!r}, "
            f"last_lsn={self.last_lsn}, fsync={self.fsync_policy!r})"
        )


def _fsync_dir(directory: Path) -> None:
    """fsync a directory so a rename inside it is durable (POSIX)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover — platform without dir-open
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def replay_iter(records: Iterable[WalRecord], after_lsn: int) -> Iterable[WalRecord]:
    """The records with ``lsn > after_lsn`` — the replay window a recovery
    starting from a checkpoint at ``after_lsn`` must apply."""
    return (r for r in records if r.lsn > after_lsn)


class WalTailer:
    """Incremental follower of a live (or dead) log file.

    :meth:`poll` returns the records appended since the last poll, reading
    only the new bytes on the happy path.  The tailer survives everything
    the file can do while it watches:

    * an in-flight append (a trailing partial line) is left unread and
      retried on the next poll;
    * a compaction (the file shrank, or a header record appears mid-read)
      triggers a full :func:`scan_wal` resync;
    * records the tailer never saw being compacted away is reported as a
      **gap** — the caller must restore a checkpoint at or past the new
      base LSN before applying the returned records (the replica's LSN
      gate then skips the overlap).

    A mutilated tail (torn or corrupt bytes after a crash) simply ends the
    readable prefix — exactly the records a recovery would see.
    """

    def __init__(self, path: str | Path, after_lsn: int = 0) -> None:
        self.path = Path(path)
        #: LSN of the last record delivered (start: the caller's resume point).
        self.last_lsn = int(after_lsn)
        self._offset = 0
        self._synced = False  # offset is valid for the current file layout

    def poll(self) -> tuple[list[WalRecord], bool]:
        """``(new_records, gap)`` — records with ``lsn > last_lsn`` in
        order, and whether a compaction dropped records this tailer never
        delivered (resync from a checkpoint required)."""
        if not self.path.exists():
            return [], False
        size = self.path.stat().st_size
        if not self._synced or size < self._offset:
            return self._rescan()
        if size == self._offset:
            return [], False
        with self.path.open("rb") as fh:
            fh.seek(self._offset)
            raw = fh.read(size - self._offset)
        out: list[WalRecord] = []
        rel = 0
        while True:
            newline = raw.find(b"\n", rel)
            if newline < 0:
                break  # partial line: an append in flight, retry next poll
            record = _parse_line(raw[rel : newline + 1])
            if record is None:
                # A *complete* but invalid line mid-file: either the file
                # was rewritten under us or the tail is corrupt — a full
                # rescan settles which (and where the valid prefix ends).
                return self._rescan()
            if record.op == HEADER_OP:
                return self._rescan()  # file rewritten and regrown
            if record.lsn > self.last_lsn + 1:
                return self._rescan()  # discontinuity: resync
            if record.lsn == self.last_lsn + 1:
                out.append(record)
                self.last_lsn = record.lsn
            rel = newline + 1
        self._offset += rel
        return out, False

    def _rescan(self) -> tuple[list[WalRecord], bool]:
        scan = scan_wal(self.path)
        gap = scan.base_lsn > self.last_lsn
        out = [r for r in scan.records if r.lsn > self.last_lsn]
        if out:
            self.last_lsn = out[-1].lsn
        elif gap:
            # Everything below the new base is gone; future polls resume
            # from the base (the checkpoint the caller restores covers it).
            self.last_lsn = scan.base_lsn
        self._offset = scan.good_offset
        self._synced = True
        return out, gap
