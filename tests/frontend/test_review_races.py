"""Regression tests for races at the front-end/fabric seam.

Drain intents are keyed by switch, so the intent queue does not serialize
them against a tenant's own intents: a drain can re-home (or evict) a
tenant between a fast path reading the tenant's home shard and acquiring
that shard's lock.  ``evict_local``/``modify_local`` must revalidate the
record under the lock and escalate instead of mutating through a stale
home.  Related shutdown/transport hardening rides along: a timed-out
``ShardWorkerPool.stop`` must raise and stay retryable, and the HTTP
server must map unexpected worker exceptions to a 500 response rather than
dropping the keep-alive connection.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro.errors import FrontendError
from repro.frontend import FrontendServer, ShardWorkerPool

from .conftest import chain


class _HookedLocks(dict):
    """A ``_shard_locks`` stand-in that fires ``hook`` once, on the first
    lock lookup — simulating a cross-shard op winning the race between
    routing (reading the tenant's home) and locking that home."""

    def __init__(self, base, hook):
        super().__init__(base)
        self._hook = hook
        self._fired = False

    def __getitem__(self, key):
        if not self._fired:
            self._fired = True
            self._hook()
        return super().__getitem__(key)


def test_evict_local_escalates_when_drain_rehomes_in_the_window(fabric):
    assert fabric.admit(chain(1)).ok
    home = fabric.tenants[1].segments[0].switch
    fabric._shard_locks = _HookedLocks(
        fabric._shard_locks, lambda: fabric.drain(home)
    )
    # The drain re-homed tenant 1 while evict_local was acquiring the
    # stale home's lock; the fast path must refuse, not mutate the new
    # home's state under the wrong lock.
    assert fabric.evict_local(1) is None
    assert 1 in fabric.tenants
    assert fabric.tenants[1].segments[0].switch != home
    assert fabric.check_invariant() == []
    assert fabric.evict(1).ok


def test_evict_local_escalates_when_tenant_vanishes_in_the_window(fabric):
    assert fabric.admit(chain(2)).ok
    fabric._shard_locks = _HookedLocks(
        fabric._shard_locks, lambda: fabric.evict(2)
    )
    # Pre-fix this raised an uncaught KeyError from tenants.pop; now it
    # escalates, and the public path decides the rejection.
    assert fabric.evict_local(2) is None
    rejected = fabric.evict(2)
    assert not rejected.ok and rejected.reason == "unknown-tenant"
    assert fabric.check_invariant() == []


def test_modify_local_escalates_when_drain_rehomes_in_the_window(fabric):
    assert fabric.admit(chain(3)).ok
    home = fabric.tenants[3].segments[0].switch
    fabric._shard_locks = _HookedLocks(
        fabric._shard_locks, lambda: fabric.drain(home)
    )
    assert fabric.modify_local(3, chain(3, rules=(20, 20, 20))) is None
    assert 3 in fabric.tenants
    assert fabric.check_invariant() == []


def test_stop_timeout_raises_and_a_later_stop_succeeds(
    fabric, tmp_path, monkeypatch
):
    from repro.durability.checkpoint import FabricDurability

    durability = FabricDurability(tmp_path, fsync="off").attach(fabric)
    pool = ShardWorkerPool(fabric)
    pool.start()
    monkeypatch.setattr(pool.queue, "join", lambda timeout=None: False)
    with pytest.raises(FrontendError, match="timed out"):
        pool.stop(timeout=0.5)
    # No confirmed quiesce: the pool still counts as running.  A public op
    # holds every shard lock whether or not workers are alive, so its
    # record carries the full fabric digest all the same.
    assert pool.snapshot()["running"]
    assert fabric.admit(chain(4)).ok
    assert durability.wal.records()[-1].data["digest"] == fabric.digest()
    monkeypatch.undo()
    pool.stop(timeout=10.0)
    assert not pool.snapshot()["running"]


def test_unexpected_worker_exception_maps_to_500(fabric, monkeypatch):
    def boom(*_args, **_kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(fabric, "evict_local", boom)
    monkeypatch.setattr(fabric, "evict", boom)
    with FrontendServer(fabric, port=0) as server:
        request = urllib.request.Request(
            f"{server.url}/v1/tenants/7", method="DELETE"
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=10)
        assert err.value.code == 500
        body = json.loads(err.value.read().decode("utf-8"))
        assert "RuntimeError" in body["error"]
        # The connection got a real response; the server keeps serving.
        with urllib.request.urlopen(
            f"{server.url}/healthz", timeout=10
        ) as resp:
            assert resp.status == 200
