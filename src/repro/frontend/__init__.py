"""The concurrent control-plane front end.

Tenant intents enter through :class:`~repro.frontend.server.FrontendServer`
(HTTP/JSON) or :class:`~repro.frontend.client.FrontendClient` (in-process),
are ordered by the bounded per-tenant
:class:`~repro.frontend.queue.IntentQueue`, and execute on the
one-worker-per-switch :class:`~repro.frontend.workers.ShardWorkerPool`
through the orchestrator's one-shard entry points — concurrent admission
across shards with every fabric invariant intact.  See DESIGN.md §14.
"""

from repro.frontend.client import FrontendClient, HttpFrontendClient
from repro.frontend.queue import Intent, IntentQueue, IntentTicket
from repro.frontend.server import FrontendServer
from repro.frontend.workers import ShardWorker, ShardWorkerPool

__all__ = [
    "FrontendClient",
    "FrontendServer",
    "HttpFrontendClient",
    "Intent",
    "IntentQueue",
    "IntentTicket",
    "ShardWorker",
    "ShardWorkerPool",
]
