"""Front-end clients: in-process (tests/benches) and HTTP (wire checks).

:class:`FrontendClient` submits intents straight into a
:class:`~repro.frontend.workers.ShardWorkerPool`'s queue and blocks on
the ticket — the zero-serialization path benchmarks use, with exactly the
ordering/backpressure semantics of the HTTP server.

:class:`HttpFrontendClient` speaks the server's JSON protocol over one
keep-alive stdlib ``http.client`` connection — used by the server tests
and ``sfp reoptimize --url``; no third-party HTTP stack."""

from __future__ import annotations

import http.client
import json
from dataclasses import asdict
from urllib.parse import urlsplit

from repro.core.spec import SFC
from repro.errors import FrontendError, QueueFullError
from repro.fabric.orchestrator import DrainReport, FabricOpResult
from repro.frontend.queue import Intent
from repro.frontend.workers import ShardWorkerPool


def result_to_dict(result) -> dict:
    """JSON-native form of a worker result (``FabricOpResult``,
    ``DrainReport``, or ``None`` from undrain)."""
    if result is None:
        return {"ok": True}
    if isinstance(result, FabricOpResult):
        body = asdict(result)
        body["switches"] = list(result.switches)
        return body
    if isinstance(result, DrainReport):
        return {
            "ok": True,
            "op": "drain",
            "switch": result.switch,
            "rehomed": list(result.rehomed),
            "evicted": list(result.evicted),
        }
    raise FrontendError(f"unserializable result {type(result).__name__}")


class FrontendClient:
    """Blocking in-process client over a running worker pool."""

    def __init__(
        self, pool: ShardWorkerPool, timeout: float | None = 30.0
    ) -> None:
        self.pool = pool
        self.timeout = timeout

    def _run(self, intent: Intent):
        return self.pool.submit(intent).result(self.timeout)

    def admit(self, sfc: SFC) -> FabricOpResult:
        """Admit ``sfc`` (its ``tenant_id`` field names the tenant)."""
        return self._run(
            Intent(kind="admit", tenant_id=sfc.tenant_id, sfc=sfc)
        )

    def evict(self, tenant_id: int) -> FabricOpResult:
        """Evict ``tenant_id``'s chain from the fabric."""
        return self._run(Intent(kind="evict", tenant_id=tenant_id))

    def modify(self, tenant_id: int, new_chain: SFC) -> FabricOpResult:
        """Replace ``tenant_id``'s chain with ``new_chain``."""
        return self._run(
            Intent(kind="modify", tenant_id=tenant_id, sfc=new_chain)
        )

    def drain(self, switch: str) -> DrainReport:
        """Drain ``switch``, re-homing (or evicting) its tenants."""
        return self._run(Intent(kind="drain", switch=switch))

    def undrain(self, switch: str) -> None:
        """Return a drained ``switch`` to the routing rotation."""
        return self._run(Intent(kind="undrain", switch=switch))


class HttpFrontendClient:
    """Thin JSON-over-HTTP client for :class:`~repro.frontend.server.
    FrontendServer` (stdlib only).  Raises :class:`QueueFullError` on 429
    and :class:`FrontendError` on other protocol-level failures; fabric
    rejections come back as normal ``{"ok": false, ...}`` payloads.

    Holds one keep-alive connection, so — like the ``http.client``
    connection it wraps — one client serves one thread at a time."""

    def __init__(self, base_url: str, timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        url = urlsplit(self.base_url)
        self._conn = http.client.HTTPConnection(
            url.hostname, url.port, timeout=timeout
        )

    def _request(self, method: str, path: str, body: dict | None = None) -> dict:
        data = None if body is None else json.dumps(body).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        try:
            self._conn.request(method, path, body=data, headers=headers)
            resp = self._conn.getresponse()
        except ConnectionError:
            # Stale keep-alive socket (the server closed it since the last
            # reply): reconnect and send again, once.
            self._conn.close()
            self._conn.request(method, path, body=data, headers=headers)
            resp = self._conn.getresponse()
        payload = resp.read().decode("utf-8", errors="replace")
        if resp.status == 429:
            raise QueueFullError(payload)
        if resp.status >= 400:
            raise FrontendError(f"{method} {path} -> {resp.status}: {payload}")
        return json.loads(payload)

    def close(self) -> None:
        """Drop the connection (the next request reconnects)."""
        self._conn.close()

    def admit(self, sfc: SFC) -> dict:
        """POST the admit intent; returns the decided-result payload."""
        return self._request("POST", "/v1/tenants", {"sfc": sfc.to_dict()})

    def evict(self, tenant_id: int) -> dict:
        """DELETE the tenant; returns the decided-result payload."""
        return self._request("DELETE", f"/v1/tenants/{tenant_id}")

    def modify(self, tenant_id: int, new_chain: SFC) -> dict:
        """PUT the replacement chain; returns the decided-result payload."""
        return self._request(
            "PUT", f"/v1/tenants/{tenant_id}", {"sfc": new_chain.to_dict()}
        )

    def drain(self, switch: str) -> dict:
        """POST a drain of ``switch``; returns the drain report."""
        return self._request("POST", f"/v1/switches/{switch}/drain")

    def undrain(self, switch: str) -> dict:
        """POST an undrain of ``switch``."""
        return self._request("POST", f"/v1/switches/{switch}/undrain")

    def reoptimize(self, **options) -> dict:
        """POST a fleet-wide re-optimization pass (options: ``mode``,
        ``min_benefit``, ``max_moves``, ``execute``); returns its summary."""
        return self._request("POST", "/v1/reoptimize", options or {})

    def health(self) -> dict:
        """GET liveness + queue depth."""
        return self._request("GET", "/healthz")

    def summary(self) -> dict:
        """GET the fabric occupancy summary."""
        return self._request("GET", "/v1/summary")

    def queue(self) -> dict:
        """GET the queue + worker-pool snapshot."""
        return self._request("GET", "/v1/queue")

    def metrics(self) -> dict:
        """GET the fabric metrics snapshot."""
        return self._request("GET", "/v1/metrics")
