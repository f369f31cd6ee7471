"""Deterministic fault injection: seeded crash points + disk mutilation.

The harness simulates process death *in-process* and disk loss *on the real
file*, so every scenario the recovery engine must survive is reproducible
from a seed:

* :class:`FaultInjector` — raises :class:`CrashError` at the N-th visit of
  a named durability site (the :class:`~repro.durability.wal.WriteAheadLog`
  hook sites: ``wal.before-append`` / ``wal.after-append`` /
  ``wal.before-fsync`` / ``wal.after-fsync``), killing the run *before* or
  *after* each durability boundary.
* :class:`CountdownCrash` — a generic callable that dies after N calls;
  plug it into :attr:`TransactionalInstaller.on_batch` to die mid two-phase
  install, or between the re-homes of a drain.
* Disk mutilation — :func:`lose_unsynced_tail` (drop everything past the
  last fsync: the page cache died with the process), :func:`tear_tail`
  (a half-written last line), :func:`corrupt_tail` (a flipped bit in the
  last record).  Applied to the WAL file after :meth:`WriteAheadLog.abort`,
  they reproduce exactly the on-disk states a real crash can leave.

``crash_sites(...)`` enumerates the seeded sweep the fault suite drives:
every injection site × crash ordinal, deterministic under a fixed seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from repro.errors import DurabilityError

#: The WAL hook sites a :class:`FaultInjector` can crash at.
WAL_SITES = (
    "wal.before-append",
    "wal.after-append",
    "wal.before-fsync",
    "wal.after-fsync",
)

#: The atomic-rename windows: between ``os.replace`` and the directory
#: fsync that makes it durable, for checkpoint writes and WAL compaction.
CHECKPOINT_SITES = (
    "checkpoint.before-rename",
    "checkpoint.after-rename",
    "wal.compact.before-rename",
    "wal.compact.after-rename",
)

#: Every durability crash site — the HA kill-primary sweep arms all of
#: these on the primary and asserts the promoted standby lands
#: digest-identical at the committed LSN regardless of where death struck.
DURABILITY_SITES = WAL_SITES + CHECKPOINT_SITES

#: How the disk may look after the process dies (applied post-abort).
DISK_MODES = ("keep", "lose-unsynced", "tear", "corrupt")


class CrashError(DurabilityError):
    """The simulated process death.  Raised by injectors at their armed
    site; test harnesses catch it where a real deployment would restart."""


@dataclass(frozen=True)
class CrashPoint:
    """One armed crash: die at the ``at``-th visit of ``site`` (1-based)."""

    site: str
    at: int = 1

    def __post_init__(self) -> None:
        if self.at < 1:
            raise DurabilityError("crash ordinal is 1-based")


class FaultInjector:
    """A WAL ``fault_hook`` that dies at a specific visit of one site.

    Counts every visit of every site (so a test can assert coverage), and
    raises :class:`CrashError` the moment the armed :class:`CrashPoint` is
    reached.  ``fired`` records whether the crash actually happened —
    sweeps use it to skip sites a scenario never visits.
    """

    def __init__(self, point: CrashPoint | None) -> None:
        self.point = point
        self.visits: dict[str, int] = {}
        self.fired = False

    def __call__(self, site: str) -> None:
        self.visits[site] = self.visits.get(site, 0) + 1
        if (
            self.point is not None
            and not self.fired
            and site == self.point.site
            and self.visits[site] == self.point.at
        ):
            self.fired = True
            raise CrashError(f"injected crash at {site} (visit {self.point.at})")


class CountdownCrash:
    """A generic callable that raises :class:`CrashError` on its N-th call.

    Signature-agnostic (``*args, **kwargs``), so it plugs into any hook:
    ``installer.on_batch`` to die between the two phases of an install, or
    partway through a drain's re-homing cascade.
    """

    def __init__(self, n: int) -> None:
        if n < 1:
            raise DurabilityError("countdown is 1-based")
        self.remaining = n
        self.calls = 0
        self.fired = False

    def __call__(self, *args, **kwargs) -> None:
        self.calls += 1
        self.remaining -= 1
        if self.remaining == 0 and not self.fired:
            self.fired = True
            raise CrashError(f"injected crash after {self.calls} calls")


# ----------------------------------------------------------------------
# Disk mutilation (applied to the WAL file after abort())
# ----------------------------------------------------------------------
def lose_unsynced_tail(path: str | Path, durable_offset: int) -> int:
    """Drop every byte past ``durable_offset`` — the bytes that only lived
    in the page cache when the process died.  Returns bytes dropped."""
    path = Path(path)
    if not path.exists():
        return 0
    size = path.stat().st_size
    if size <= durable_offset:
        return 0
    with path.open("r+b") as fh:
        fh.truncate(durable_offset)
    return size - durable_offset


def tear_tail(path: str | Path) -> int:
    """Cut the last line in half — a crash mid-write left a torn record.
    Returns bytes dropped (0 if the file has no last line to tear)."""
    path = Path(path)
    if not path.exists():
        return 0
    raw = path.read_bytes()
    if not raw:
        return 0
    body = raw[:-1] if raw.endswith(b"\n") else raw
    start = body.rfind(b"\n") + 1  # 0 when the file holds a single line
    line_len = len(raw) - start
    cut = start + max(1, line_len // 2)
    with path.open("r+b") as fh:
        fh.truncate(cut)
    return len(raw) - cut


def corrupt_tail(path: str | Path) -> bool:
    """Flip one bit inside the last record — silent on-disk corruption the
    CRC must catch.  Returns whether anything was flipped."""
    path = Path(path)
    if not path.exists():
        return False
    raw = bytearray(path.read_bytes())
    if not raw:
        return False
    body_end = len(raw) - 1 if raw.endswith(b"\n") else len(raw)
    start = raw.rfind(b"\n", 0, body_end) + 1
    if start >= body_end:
        return False
    target = start + (body_end - start) // 2
    raw[target] ^= 0x10
    path.write_bytes(bytes(raw))
    return True


def mutilate(path: str | Path, mode: str, durable_offset: int = 0) -> None:
    """Apply one :data:`DISK_MODES` entry to a WAL file post-abort."""
    if mode == "keep":
        return
    if mode == "lose-unsynced":
        lose_unsynced_tail(path, durable_offset)
    elif mode == "tear":
        tear_tail(path)
    elif mode == "corrupt":
        corrupt_tail(path)
    else:
        raise DurabilityError(f"unknown disk mode {mode!r}; choices: {DISK_MODES}")


def crash_sites(
    seed: int, max_ordinal: int, sites: tuple[str, ...] = WAL_SITES
) -> list[CrashPoint]:
    """The seeded crash-point sweep: every site × a deterministic sample of
    crash ordinals in ``[1, max_ordinal]``.  Same seed → same sweep."""
    if max_ordinal < 1:
        raise DurabilityError("max_ordinal must be >= 1")
    rng = random.Random(seed)
    points: list[CrashPoint] = []
    for site in sites:
        ordinals = {1, max_ordinal}
        while len(ordinals) < min(4, max_ordinal):
            ordinals.add(rng.randint(1, max_ordinal))
        points.extend(CrashPoint(site=site, at=n) for n in sorted(ordinals))
    return points
