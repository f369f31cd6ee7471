"""WAL shipping: stream committed records from a primary to a standby.

The wire unit is a **frame**: a 4-byte big-endian length prefix followed by
one JSON object.  Five kinds flow:

``hello``
    standby → shipper, once per connection: ``{"kind": "hello",
    "last_lsn": N, "epoch": E}`` — where the replica wants the stream to
    resume and the highest sender epoch it has accepted.
``manifest``
    the recovery manifest, shipped first so a blank replica can construct
    an equivalent empty fabric before any record arrives.
``checkpoint``
    a full checkpoint, shipped when the tailer reports a *gap* (records
    the replica never saw were compacted away) — the replica restores it
    and resumes record replay from its LSN.
``record``
    one WAL line, verbatim: ``{"kind": "record", "epoch": E, "line":
    "<the JSONL line>"}``.  The replica re-parses and re-CRCs the line
    itself, so a bit flipped anywhere between the primary's disk and the
    replica's memory is caught by the same check that guards recovery.
``heartbeat``
    ``{"kind": "heartbeat", "epoch": E, "last_lsn": N, "sent_at": T}`` —
    closes every pump so the replica can measure replication lag even
    when no records flowed.

Every frame the shipper sends carries the **sender's lease epoch** (from
``epoch_fn``, read per pump so promotions re-stamp the stream).  The
replica rejects any frame whose epoch is below the highest it has accepted
— the receive-side half of fencing: once a new primary's first frame lands,
a deposed primary's stream is dead no matter how its socket limps on.
Note the *records inside* the stream keep their original epochs (history is
immutable); only the envelope epoch is checked.

Transports: :class:`InProcessSink` couples a shipper directly to a
:class:`~repro.ha.standby.StandbyReplica` in the same process (the failover
harness and tests), :class:`SocketSink` / :class:`ReplicationListener` run
the identical frame protocol over TCP for real two-process deployments.
"""

from __future__ import annotations

import json
import socket
import struct
import threading
import time
import traceback
from pathlib import Path
from typing import Callable

from repro.durability.checkpoint import CheckpointStore, read_manifest
from repro.durability.wal import WalTailer
from repro.errors import DurabilityError

#: Frames larger than this are rejected — a length prefix this big means a
#: corrupt or hostile stream, not a checkpoint (even million-tenant
#: checkpoints stay far below it).
MAX_FRAME_BYTES = 256 * 1024 * 1024


def encode_frame(payload: dict) -> bytes:
    """One wire frame: 4-byte big-endian length + compact JSON."""
    body = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )
    if len(body) > MAX_FRAME_BYTES:
        raise DurabilityError(f"frame too large: {len(body)} bytes")
    return struct.pack(">I", len(body)) + body


def _recv_exact(sock: socket.socket, n: int) -> bytes | None:
    """``n`` bytes off the socket, or ``None`` on a clean EOF."""
    chunks: list[bytes] = []
    got = 0
    while got < n:
        chunk = sock.recv(min(65536, n - got))
        if not chunk:
            return None
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> dict | None:
    """Read one frame off a socket (``None`` on clean EOF at a boundary)."""
    header = _recv_exact(sock, 4)
    if header is None:
        return None
    (length,) = struct.unpack(">I", header)
    if length > MAX_FRAME_BYTES:
        raise DurabilityError(f"frame too large: {length} bytes")
    body = _recv_exact(sock, length)
    if body is None:
        raise DurabilityError("connection died mid-frame")
    try:
        payload = json.loads(body)
    except ValueError as exc:
        raise DurabilityError(f"undecodable frame: {exc}") from exc
    if not isinstance(payload, dict):
        raise DurabilityError("frame payload must be a JSON object")
    return payload


# ----------------------------------------------------------------------
# Sinks (the shipper's output side)
# ----------------------------------------------------------------------
class InProcessSink:
    """Couples a shipper to a standby living in the same process: frames
    are fed synchronously, so after :meth:`WalShipper.pump` returns the
    replica has applied everything the call shipped."""

    def __init__(self, standby) -> None:
        self.standby = standby

    def hello(self) -> dict:
        """The resume handshake, read straight off the live replica."""
        return {
            "kind": "hello",
            "last_lsn": self.standby.applied_lsn,
            "epoch": self.standby.accepted_epoch,
        }

    def send(self, frame: dict) -> None:
        """Deliver one frame synchronously to the replica."""
        self.standby.feed(frame)

    def close(self) -> None:
        """Nothing to release for the in-process coupling."""


class SocketSink:
    """Ships frames over TCP to a :class:`ReplicationListener`.

    The connection handshake is pull-then-push: the listener speaks first
    (its ``hello`` carries the resume LSN), then frames flow one way.
    """

    def __init__(self, host: str, port: int, timeout_s: float = 10.0) -> None:
        self.sock = socket.create_connection((host, port), timeout=timeout_s)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._hello = recv_frame(self.sock)
        if self._hello is None or self._hello.get("kind") != "hello":
            self.sock.close()
            raise DurabilityError(
                f"replication handshake failed: expected hello, "
                f"got {self._hello!r}"
            )

    def hello(self) -> dict:
        """The hello the listener sent when this connection opened."""
        return self._hello

    def send(self, frame: dict) -> None:
        """Encode and write one frame to the socket."""
        self.sock.sendall(encode_frame(frame))

    def close(self) -> None:
        """Close the connection (best-effort)."""
        try:
            self.sock.close()
        except OSError:  # pragma: no cover — close is best-effort
            pass


class ReplicationListener:
    """The standby's accept loop: speaks ``hello``, then feeds every
    incoming frame to the replica.  One connection at a time (WAL shipping
    has exactly one upstream); a new connection after a disconnect gets a
    fresh hello at the replica's current resume point."""

    def __init__(
        self, standby, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.standby = standby
        self._server = socket.create_server((host, port))
        self.host, self.port = self._server.getsockname()[:2]
        self._closing = False
        self._thread = threading.Thread(
            target=self._serve, name="repl-listener", daemon=True
        )
        self._thread.start()

    def _serve(self) -> None:
        while not self._closing:
            try:
                conn, _addr = self._server.accept()
            except OSError:
                return  # listener closed
            try:
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                conn.sendall(
                    encode_frame(
                        {
                            "kind": "hello",
                            "last_lsn": self.standby.applied_lsn,
                            "epoch": self.standby.accepted_epoch,
                        }
                    )
                )
                while True:
                    frame = recv_frame(conn)
                    if frame is None:
                        break
                    self.standby.feed(frame)
            except Exception:  # noqa: BLE001 — one bad peer must not end the loop
                # Drop the connection and await the next; keep the reason.
                self.standby.metrics.inc("ha.connections_dropped")
                self.standby.recorder.record_state(
                    "ha-connection-dropped", error=traceback.format_exc()
                )
            finally:
                conn.close()

    def close(self) -> None:
        """Stop accepting and join the accept-loop thread."""
        self._closing = True
        try:
            # Shutdown wakes the thread blocked in accept(); close alone
            # does not.
            self._server.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._server.close()
        self._thread.join(timeout=5.0)


# ----------------------------------------------------------------------
# The shipper
# ----------------------------------------------------------------------
class WalShipper:
    """Streams one durability directory's fabric WAL to a sink.

    Reads the *files* a :class:`~repro.durability.checkpoint.FabricDurability`
    maintains — not the coordinator object — so the same class ships from a
    live primary (tailing its log as it grows) and from a dead one's
    surviving directory (the promoted standby's final catch-up).  Resume is
    LSN-based: the sink's ``hello`` says where to start, the tailer follows
    appends incrementally, and a compaction gap triggers a checkpoint frame
    before the records after it.
    """

    WAL_NAME = "fabric.wal.jsonl"

    def __init__(
        self,
        directory: str | Path,
        sink,
        epoch_fn: Callable[[], int] = lambda: 0,
        clock: Callable[[], float] = time.time,
    ) -> None:
        """``epoch_fn`` supplies the sender's current lease epoch, read on
        every pump — so a coordinator's live epoch (or a fixed token for
        catch-up shipping) stamps every frame."""
        self.directory = Path(directory)
        self.sink = sink
        self.epoch_fn = epoch_fn
        self.clock = clock
        self.store = CheckpointStore(self.directory)
        hello = sink.hello()
        self.tailer = WalTailer(
            self.directory / self.WAL_NAME,
            after_lsn=int(hello.get("last_lsn", 0)),
        )
        self._manifest_sent = False
        self.shipped_records = 0
        self.shipped_checkpoints = 0

    def pump(self) -> int:
        """Ship everything new since the last pump; returns the number of
        record frames sent.  Always ends with a heartbeat."""
        epoch = int(self.epoch_fn())
        if not self._manifest_sent:
            self.sink.send(
                {
                    "kind": "manifest",
                    "epoch": epoch,
                    "manifest": read_manifest(self.directory),
                }
            )
            self._manifest_sent = True
        records, gap = self.tailer.poll()
        if gap:
            checkpoint = self.store.load_latest()
            if checkpoint is None:
                raise DurabilityError(
                    f"wal in {self.directory} was compacted past the "
                    f"replica's resume point but no loadable checkpoint "
                    f"covers the gap"
                )
            self.sink.send(
                {"kind": "checkpoint", "epoch": epoch, "checkpoint": checkpoint}
            )
            self.shipped_checkpoints += 1
        for record in records:
            self.sink.send(
                {
                    "kind": "record",
                    "epoch": epoch,
                    "line": record.to_line().decode("utf-8").rstrip("\n"),
                }
            )
        self.shipped_records += len(records)
        self.sink.send(
            {
                "kind": "heartbeat",
                "epoch": epoch,
                "last_lsn": self.tailer.last_lsn,
                "sent_at": self.clock(),
            }
        )
        return len(records)

    def close(self) -> None:
        """Close the sink (and with it any socket it holds)."""
        self.sink.close()
