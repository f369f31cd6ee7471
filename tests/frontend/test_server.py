"""FrontendServer HTTP tests: route coverage, error mapping (400/404/429/
503), the wire contract (one write per reply, ``TCP_NODELAY``, a vanished
client is not an error), and graceful shutdown with a quiesce checkpoint."""

import http.client
import json
import socket
import statistics
import struct
import threading
import time
import urllib.request
from types import SimpleNamespace

import pytest

from repro.durability import FabricDurability, recover_fabric
from repro.errors import FencedError, FrontendError, QueueFullError
from repro.fabric import FabricOrchestrator, FabricTopology
from repro.frontend import (
    FrontendServer,
    HttpFrontendClient,
    Intent,
    IntentQueue,
)
from repro.frontend.server import MAX_BODY_BYTES, _Handler
from repro.frontend.workers import ShardWorker

from .conftest import chain


@pytest.fixture
def server(fabric):
    server = FrontendServer(fabric, port=0).start()
    yield server
    server.close(timeout=10.0)


@pytest.fixture
def client(server):
    client = HttpFrontendClient(server.url, timeout=10.0)
    yield client
    client.close()


def test_health_and_introspection_routes(server, client):
    health = client.health()
    assert health["ok"] and not health["draining"]
    assert client.summary()["tenants"] == 0
    queue = client.queue()
    assert queue["running"] and len(queue["workers"]) == 4
    assert "counters" in client.metrics()


def test_tenant_lifecycle_over_http(fabric, client):
    admitted = client.admit(chain(1))
    assert admitted["ok"] and admitted["switches"]
    dup = client.admit(chain(1))
    assert not dup["ok"] and dup["reason"] == "duplicate-tenant"
    modified = client.modify(1, chain(1, rules=(20, 20, 20)))
    assert modified["ok"]
    evicted = client.evict(1)
    assert evicted["ok"]
    missing = client.evict(1)
    assert not missing["ok"] and missing["reason"] == "unknown-tenant"
    assert fabric.tenants == {}


def test_drain_and_undrain_over_http(fabric, client):
    for t in range(8):
        assert client.admit(chain(t))["ok"]
    victim = fabric.tenants[0].switches[0]
    report = client.drain(victim)
    assert report["ok"] and report["op"] == "drain"
    assert report["switch"] == victim
    undrained = client.undrain(victim)
    assert undrained["ok"]


def test_unknown_routes_404(server, client):
    for method, path in [
        ("GET", "/nope"),
        ("POST", "/v1/frobnicate"),
        ("PUT", "/v1/tenants"),
        ("DELETE", "/v1/tenants/1/extra"),
    ]:
        with pytest.raises(FrontendError, match="-> 404"):
            client._request(method, path, {} if method != "GET" else None)


def test_malformed_requests_400(server, client):
    with pytest.raises(FrontendError, match="-> 400"):
        client._request("POST", "/v1/tenants", {"sfc": "not-an-object"})
    with pytest.raises(FrontendError, match="-> 400"):
        client._request("POST", "/v1/tenants", {})
    with pytest.raises(FrontendError, match="-> 400"):
        client._request("DELETE", "/v1/tenants/banana")
    # Raw non-JSON body.
    request = urllib.request.Request(
        f"{server.url}/v1/tenants", data=b"{nope", method="POST"
    )
    try:
        urllib.request.urlopen(request, timeout=10.0)
        raise AssertionError("expected HTTP 400")
    except urllib.error.HTTPError as exc:
        assert exc.code == 400
        assert "bad JSON" in json.loads(exc.read())["error"]


@pytest.fixture(scope="module")
def shared_server():
    """One server for all the hostile-body cases (none may change it)."""
    fabric = FabricOrchestrator(
        FabricTopology.full_mesh(2), num_types=3, with_dataplane=False
    )
    with FrontendServer(fabric, port=0) as server:
        yield server


def complete(reply: bytes) -> bool:
    """Whether ``reply`` holds one whole HTTP response."""
    head, sep, payload = reply.partition(b"\r\n\r\n")
    if not sep:
        return False
    [length] = [
        int(line.split(b":")[1])
        for line in head.split(b"\r\n")
        if line.lower().startswith(b"content-length:")
    ]
    return len(payload) >= length


@pytest.mark.parametrize(
    "content_length, body, status",
    [
        ("-1", b"", 400),
        ("abc", b"", 400),
        ("99999999999", b"", 413),
        (str(MAX_BODY_BYTES + 1), b"x" * (MAX_BODY_BYTES + 1), 413),
        ("100000", b"[" * 100_000, 400),
    ],
    ids=["negative", "non-integer", "huge", "over-bound", "deep-nesting"],
)
def test_hostile_bodies_get_a_typed_error_not_a_hang(
    shared_server, content_length, body, status
):
    """A length the server will not read is refused *before* reading —
    400/413 with a JSON error, connection closed so the unread bytes cannot
    pose as the next request — and JSON nested past the recursion limit is
    bad JSON like any other.  None of it reaches the fabric."""
    fabric = shared_server.fabric
    before = fabric.digest()
    host, port = shared_server.address.split(":")
    started = time.monotonic()
    with socket.create_connection((host, int(port)), timeout=1.0) as sock:
        sock.sendall(
            b"POST /v1/tenants HTTP/1.1\r\nHost: test\r\n"
            b"Content-Length: " + content_length.encode() + b"\r\n\r\n"
        )
        try:
            sock.sendall(body)
        except OSError:
            pass  # refused unread: the server may already have hung up
        reply = b""
        try:
            # One full reply (head + Content-Length bytes): a fully-read
            # request leaves the connection open, so EOF may never come.
            while not complete(reply) and (chunk := sock.recv(65536)):
                reply += chunk
        except ConnectionResetError:
            pass  # closed with our unread bytes still in its buffer
    assert time.monotonic() - started < 1.0
    head, _, payload = reply.partition(b"\r\n\r\n")
    assert head.startswith(f"HTTP/1.1 {status} ".encode()), reply[:200]
    assert "error" in json.loads(payload)
    if not body or status == 413:
        assert b"connection: close" in head.lower()
    assert fabric.digest() == before


@pytest.fixture
def gate(monkeypatch):
    """Every shard worker stalls before executing until the gate is set."""
    gate = threading.Event()
    original = ShardWorker.execute

    def gated(self, intent):
        gate.wait(timeout=10.0)
        return original(self, intent)

    monkeypatch.setattr(ShardWorker, "execute", gated)
    return gate


def test_backpressure_maps_to_429(fabric, gate):
    """Stall the workers, fill one tenant's FIFO, and watch the server
    push back with 429 + Retry-After instead of queueing unboundedly."""
    server = FrontendServer(
        fabric, port=0, queue=IntentQueue(capacity=64, per_tenant=1)
    ).start()
    try:
        client = HttpFrontendClient(server.url, timeout=10.0)
        # One keep-alive connection per client: the blocked admit gets its own.
        blocked = HttpFrontendClient(server.url, timeout=10.0)
        background = threading.Thread(
            target=blocked.admit, args=(chain(7),), daemon=True
        )
        background.start()  # blocks in the gated worker
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if server.queue.snapshot()["in_flight"] == 1:
                break
            time.sleep(0.01)
        assert server.queue.snapshot()["in_flight"] == 1
        # FIFO slot 1/1 for tenant 7...
        server.pool.submit(Intent(kind="evict", tenant_id=7))
        # ...so the next HTTP intent for tenant 7 bounces with 429.
        with pytest.raises(QueueFullError):
            client.evict(7)
        gate.set()
        background.join(timeout=10.0)
        client.close()
        blocked.close()
    finally:
        gate.set()
        server.close(timeout=10.0)
    assert (
        fabric.metrics_snapshot()["counters"]["frontend.http_backpressure"]
        == 1
    )


@pytest.fixture
def wire(monkeypatch):
    """What every handler put on its socket: the bytes of each
    ``wfile.write`` and the accepted socket's ``TCP_NODELAY``."""
    seen = SimpleNamespace(writes=[], nodelay=[])
    original = _Handler.setup

    def setup(self):
        original(self)
        seen.nodelay.append(
            self.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        )
        write = self.wfile.write

        def recorded(data):
            seen.writes.append(bytes(data))
            return write(data)

        self.wfile.write = recorded

    monkeypatch.setattr(_Handler, "setup", setup)
    return seen


def refuse(exc):
    def submit(_intent):
        raise exc

    return submit


@pytest.mark.parametrize(
    "status, header, submit, content_length",
    [
        (200, b"Content-Type: application/json", None, None),
        (429, b"Retry-After: 1", refuse(QueueFullError("tenant fifo full")), None),
        (413, b"Connection: close", None, str(MAX_BODY_BYTES + 1)),
        (503, b"Location: http://primary:1", refuse(FencedError("lease lost")), None),
    ],
    ids=["200", "429-retry-after", "413-close", "503-location"],
)
def test_each_reply_is_one_write_on_a_nodelay_socket(
    fabric, wire, status, header, submit, content_length
):
    """Head and body in two writes is a 40 ms reply: Nagle holds the second
    until the client's delayed ACK answers the first."""
    body = json.dumps({"sfc": chain(1).to_dict()}).encode()
    headers = {"Content-Length": content_length} if content_length else {}
    with FrontendServer(fabric, port=0, primary_url="http://primary:1") as server:
        if submit is not None:
            server.pool.submit = submit
        host, port = server.address.split(":")
        conn = http.client.HTTPConnection(host, int(port), timeout=10.0)
        conn.request("POST", "/v1/tenants", body=body, headers=headers)
        response = conn.getresponse()
        payload = response.read()
        conn.close()
    assert response.status == status
    assert wire.nodelay == [1]
    [reply] = wire.writes
    head, _, sent_payload = reply.partition(b"\r\n\r\n")
    assert head.startswith(f"HTTP/1.1 {status} ".encode())
    assert header in head.split(b"\r\n")
    assert sent_payload == payload and json.loads(payload)


def test_keep_alive_round_trip_is_milliseconds(server):
    """50 admit -> evict cycles on one connection.  Replies split in two
    segments took 44 ms each; joined they take about 2 ms."""
    host, port = server.address.split(":")
    conn = http.client.HTTPConnection(host, int(port), timeout=10.0)
    rtts = []
    for tenant in range(50):
        admit = json.dumps({"sfc": chain(tenant).to_dict()}).encode()
        for method, path, body in [
            ("POST", "/v1/tenants", admit),
            ("DELETE", f"/v1/tenants/{tenant}", None),
        ]:
            started = time.perf_counter()
            conn.request(method, path, body=body)
            response = conn.getresponse()
            payload = json.loads(response.read())
            rtts.append(time.perf_counter() - started)
            assert response.status == 200 and payload["ok"]
    conn.close()
    assert statistics.median(rtts) < 0.010


def test_vanished_client_is_counted_not_a_traceback(
    fabric, tmp_path, gate, capfd
):
    """A client that resets its connection before the reply: the op it
    submitted still commits, the handler closes quietly (nothing on
    stderr, no 500 written onto the dead socket) and counts it."""
    FabricDurability(tmp_path, fsync="off").attach(fabric)
    server = FrontendServer(fabric, port=0).start()
    try:
        host, port = server.address.split(":")
        body = json.dumps({"sfc": chain(7).to_dict()}).encode()
        sock = socket.create_connection((host, int(port)), timeout=10.0)
        sock.sendall(
            b"POST /v1/tenants HTTP/1.1\r\nHost: test\r\n"
            b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
        )
        deadline = time.monotonic() + 5.0
        while server.queue.snapshot()["in_flight"] != 1:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        # SO_LINGER 0: close() sends RST, not FIN.
        sock.setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
        )
        sock.close()
        gate.set()
        client = HttpFrontendClient(server.url, timeout=10.0)
        while "frontend.http_client_gone" not in (
            counters := client.metrics()["counters"]
        ):
            assert time.monotonic() < deadline
            time.sleep(0.01)
        client.close()
    finally:
        gate.set()
        server.close(timeout=10.0)
    assert counters["frontend.http_client_gone"] == 1
    assert "frontend.http_internal_errors" not in counters
    assert capfd.readouterr().err == ""
    assert 7 in fabric.tenants and fabric.check_invariant() == []
    recovered, report = recover_fabric(tmp_path, with_dataplane=False)
    assert report.ok and recovered.digest() == fabric.digest()


def test_draining_server_returns_503(server, client):
    server.draining = True
    server.queue.drain()
    with pytest.raises(FrontendError, match="-> 503"):
        client.admit(chain(1))
    health = client.health()
    assert health["draining"]
    server.draining = False  # let the fixture close() run the real path
    server.queue._accepting = True


def test_graceful_close_takes_quiesce_checkpoint(fabric, tmp_path):
    FabricDurability(tmp_path, fsync="off").attach(fabric)
    server = FrontendServer(fabric, port=0).start()
    client = HttpFrontendClient(server.url, timeout=10.0)
    for t in range(10):
        assert client.admit(chain(t))["ok"]
    client.close()
    server.close(timeout=10.0)
    server.close(timeout=10.0)  # idempotent
    recovered, report = recover_fabric(tmp_path, with_dataplane=False)
    assert report.ok
    assert recovered.digest() == fabric.digest()
    assert sorted(recovered.tenants) == sorted(fabric.tenants)


def test_context_manager_start_close(fabric):
    with FrontendServer(fabric, port=0) as server:
        client = HttpFrontendClient(server.url, timeout=10.0)
        assert client.health()["ok"]
        client.close()
    assert not server.pool._running
