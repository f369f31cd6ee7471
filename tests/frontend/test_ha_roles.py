"""Role-aware front end: health/summary expose role + epoch + committed
LSN, a standby answers writes with 503 (and points at the primary when it
knows one), and a fenced primary refuses intents — queued or the direct
``POST /v1/reoptimize`` — at the door."""

import json
import urllib.error
import urllib.request

import pytest

from repro.durability import FabricDurability
from repro.errors import FencedError, FrontendError
from repro.frontend import FrontendServer, HttpFrontendClient

from tests.globalopt.conftest import fragment
from tests.globalopt.conftest import make_fabric as make_tight_fabric

from .conftest import chain


def post_admit(url, tenant_id):
    request = urllib.request.Request(
        f"{url}/v1/tenants",
        data=json.dumps({"sfc": chain(tenant_id).to_dict()}).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    return urllib.request.urlopen(request, timeout=10.0)


def test_health_and_summary_report_role_epoch_and_lsn(fabric, tmp_path):
    durability = FabricDurability(tmp_path, fsync="always", checkpoint_every=0)
    durability.attach(fabric)
    durability.set_epoch(7)
    fabric.epoch = 7
    server = FrontendServer(fabric, port=0).start()
    try:
        client = HttpFrontendClient(server.url, timeout=10.0)
        assert client.admit(chain(1))["ok"]
        health = client.health()
        assert health["role"] == "primary"
        assert health["epoch"] == 7
        assert health["committed_lsn"] == durability.wal.last_lsn >= 1
        summary = client.summary()
        assert summary["ha"]["role"] == "primary"
        assert summary["ha"]["epoch"] == 7
        assert summary["ha"]["committed_lsn"] == durability.wal.last_lsn
        client.close()
    finally:
        server.close(timeout=10.0)
        durability.close()


def test_standby_rejects_writes_with_503_and_redirect(fabric):
    fabric.role = "standby"
    server = FrontendServer(
        fabric, port=0, primary_url="http://primary.example:7070"
    ).start()
    try:
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post_admit(server.url, 1)
        assert excinfo.value.code == 503
        assert excinfo.value.headers["Location"] == "http://primary.example:7070"
        body = json.loads(excinfo.value.read())
        assert body["role"] == "standby"
        assert body["primary"] == "http://primary.example:7070"
        assert "standby" in body["error"]
        # Reads still serve: a standby is a legitimate health/summary target.
        client = HttpFrontendClient(server.url, timeout=10.0)
        assert client.health()["role"] == "standby"
        assert client.summary()["ha"]["primary"] == "http://primary.example:7070"
        counters = client.metrics()["counters"]
        assert counters["frontend.http_not_primary"] == 1
        assert fabric.tenants == {}  # nothing reached the fabric
        client.close()
    finally:
        server.close(timeout=10.0)


def test_standby_without_known_primary_omits_location(fabric):
    fabric.role = "standby"
    server = FrontendServer(fabric, port=0).start()
    try:
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post_admit(server.url, 1)
        assert excinfo.value.code == 503
        assert excinfo.value.headers["Location"] is None
        assert "primary" not in json.loads(excinfo.value.read())
    finally:
        server.close(timeout=10.0)


def test_fenced_pool_maps_to_503(fabric):
    """A primary that lost its lease mid-flight: the fence raises at
    submit, and the client sees 503 — not a hung intent."""

    def fence():
        raise FencedError("node 'a' fenced: lease now held by 'b' at epoch 2")

    server = FrontendServer(fabric, port=0, fence=fence).start()
    try:
        client = HttpFrontendClient(server.url, timeout=10.0)
        with pytest.raises(FrontendError, match="-> 503"):
            client.admit(chain(1))
        assert fabric.tenants == {}
        client.close()
    finally:
        server.close(timeout=10.0)


def fenced():
    raise FencedError("node 'a' fenced: lease now held by 'b' at epoch 2")


@pytest.mark.parametrize("trips", ["at-the-door", "during-the-pass"])
def test_fenced_reoptimize_maps_to_503_with_redirect(trips, tmp_path):
    """The direct (unqueued) write passes the same lease gate as queued
    intents: checked before the pass starts, and a fence that trips at the
    first journal append mid-pass is a redirect too, not a 500."""
    fabric = make_tight_fabric()
    assert len(fragment(fabric)) >= 2  # so a pass has moves to journal
    durability = FabricDurability(tmp_path, fsync="off", checkpoint_every=0)
    durability.attach(fabric)
    if trips == "during-the-pass":
        durability.set_fence(fenced)
    server = FrontendServer(
        fabric,
        port=0,
        primary_url="http://primary.example:7070",
        fence=fenced if trips == "at-the-door" else None,
    ).start()
    try:
        request = urllib.request.Request(
            f"{server.url}/v1/reoptimize",
            data=json.dumps({"mode": "greedy"}).encode(),
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10.0)
        assert excinfo.value.code == 503
        assert excinfo.value.headers["Location"] == "http://primary.example:7070"
        assert "fenced" in json.loads(excinfo.value.read())["error"]
        assert durability.wal.last_lsn == 0  # nothing was acknowledged
        if trips == "at-the-door":
            counters = fabric.metrics.snapshot()["counters"]
            assert counters.get("globalopt.runs", 0) == 0
    finally:
        server.close(timeout=10.0)
        durability.abort()
