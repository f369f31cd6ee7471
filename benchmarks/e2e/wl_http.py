"""``intent_http``: the full tenant path over a live HTTP server.

Closed loop: two keep-alive HTTP/1.1 connections, one thread each, because
a tenant SDK waits for each reply and a tenant's ops are ordered.  Each
client cycles admit -> modify -> evict on tenant ids of its own against
the server ``serve.py`` runs in a child process; the fabric is roomy, so
every op is admitted.
"""

from __future__ import annotations

import http.client
import json
import os
import subprocess
import sys
import threading
from itertools import islice
from time import perf_counter

import numpy as np

from repro.core.spec import SFC
from repro.durability import recover_fabric

import serve
import spans as spans_mod
from base import Workload, timed_recoveries
from quantiles import percentile, tail_percentile

CLIENTS = 2
#: Cycles each client runs before the window opens (connection, allocator
#: and shard caches warm; 3 ops per cycle).
WARM_CYCLES = 4
HEALTHZ_PROBES = 20
#: Tenant cycles (3 journal records each) applied after the server's own
#: quiesce checkpoint, so that every run leaves recovery the same journal.
TAIL_CYCLES = 100
TENANT_GBPS = 1.0
REQUEST_TIMEOUT_S = 30.0
TAIL_PCT = 95.0

CONFIG = {
    **serve.CONFIG, "clients": CLIENTS, "loop": "closed", "cycle": "admit-modify-evict",
    "warm_cycles": WARM_CYCLES, "chain_nfs": "2-6", "tenant_gbps": TENANT_GBPS,
    "tail_cycles": TAIL_CYCLES,
}


def make_chains(seed: int, client: int):
    """The endless tenant stream of one client: ``(tenant_id, first chain,
    replacement chain)``.  Chain lengths walk 2..6, so Eq. 1 over a
    client's live tenant barely depends on the seed; NF types and rule
    counts do."""
    rng = np.random.default_rng([seed, client])
    base = (client + 1) * 1_000_000
    cycle = 0
    while True:
        tenant_id = base + cycle
        chains = []
        for length in (2 + cycle % 5, 2 + (cycle + 2) % 5):
            chains.append(SFC(
                name=f"c{client}-{cycle}",
                nf_types=tuple(int(t) for t in rng.choice(
                    np.arange(1, serve.NUM_TYPES + 1), size=length, replace=False)),
                rules=tuple(int(r) for r in rng.integers(1, 5, size=length)),
                bandwidth_gbps=TENANT_GBPS,
                tenant_id=tenant_id,
            ))
        yield tenant_id, chains[0], chains[1]
        cycle += 1


def make_ops(seed: int, client: int):
    """The endless op stream of one client: ``(method, path, body, kind,
    live_weight_after)``, an admit -> modify -> evict cycle per tenant."""
    for tenant_id, first, second in make_chains(seed, client):
        yield ("POST", "/v1/tenants",
               json.dumps({"sfc": first.to_dict()}).encode(), "admit", first.weight)
        yield ("PUT", f"/v1/tenants/{tenant_id}",
               json.dumps({"sfc": second.to_dict()}).encode(), "modify", second.weight)
        yield ("DELETE", f"/v1/tenants/{tenant_id}", None, "evict", 0.0)


class Client:
    """One keep-alive connection and its op stream."""

    def __init__(self, address: str, seed: int, index: int) -> None:
        host, port = address.split(":")
        self.index = index
        self.conn = http.client.HTTPConnection(host, int(port), timeout=REQUEST_TIMEOUT_S)
        self.ops = make_ops(seed, index)
        self.sent = 0

    def request(self, method: str, path: str, body: bytes | None, rid: str):
        """One round trip; returns ``(status, payload dict or None)``."""
        headers = {"X-Bench-Rid": rid}
        if body is not None:
            headers["Content-Type"] = "application/json"
        self.conn.request(method, path, body=body, headers=headers)
        response = self.conn.getresponse()
        raw = response.read()
        try:
            return response.status, json.loads(raw)
        except ValueError:
            return response.status, None

    def run(self, until: float | None, cycles: int | None, out: dict) -> None:
        """Drive ops until the deadline (finishing the cycle in flight, so
        no tenant is left behind) or for a number of cycles."""
        rtts, rids, weights = [], [], []
        admits = admitted = failed = http_429 = 0
        done_cycles = 0
        while True:
            if cycles is not None and done_cycles >= cycles:
                break
            if until is not None and perf_counter() >= until:
                break
            for _ in range(3):
                method, path, body, kind, weight = next(self.ops)
                rid = f"{self.index}-{self.sent}"
                self.sent += 1
                t0 = perf_counter()
                try:
                    status, payload = self.request(method, path, body, rid)
                except (OSError, http.client.HTTPException):
                    status, payload = 0, None
                rtts.append(perf_counter() - t0)
                rids.append(rid)
                ok = status == 200 and bool(payload) and payload.get("ok") is True
                http_429 += status == 429
                failed += not ok
                if kind == "admit":
                    admits += 1
                    admitted += ok
                weights.append(weight if ok else 0.0)
            done_cycles += 1
        out[self.index] = {
            "rtts": rtts, "rids": rids, "weights": weights, "admits": admits,
            "admitted": admitted, "failed": failed, "http_429": http_429,
        }

    def healthz(self, count: int) -> list[float]:
        out = []
        for i in range(count):
            t0 = perf_counter()
            self.request("GET", "/healthz", None, f"h{self.index}-{i}")
            out.append(perf_counter() - t0)
        return out


class HttpWorkload(Workload):
    def __init__(self, seed: int, out_dir: str, seconds: float, trace: bool) -> None:
        self.root = os.path.join(out_dir, "ha")
        self.seed = seed
        self.child = subprocess.Popen(
            [sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)), "serve.py"),
             "--root", self.root, "--trace", str(int(trace))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        ready = self._read()
        self.clients = [Client(ready["address"], seed, i) for i in range(CLIENTS)]
        self._drive(until=None, cycles=WARM_CYCLES)
        self.stopped: dict | None = None

    # -- control channel -------------------------------------------------
    def _read(self) -> dict:
        line = self.child.stdout.readline()
        if not line:
            raise RuntimeError(f"server child exited with code {self.child.wait()}")
        return json.loads(line)

    def _ask(self, command: str) -> dict:
        self.child.stdin.write(command + "\n")
        self.child.stdin.flush()
        return self._read()

    def _drive(self, until, cycles) -> dict:
        out: dict = {}
        threads = [
            threading.Thread(target=c.run, args=(until, cycles, out)) for c in self.clients
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return out

    # -- the measured window -----------------------------------------------
    def measure(self, seconds: float, rec=None) -> dict:
        mark0 = self._ask("mark")
        cpu0 = sum(os.times()[:2])
        start = perf_counter()
        per_client = self._drive(until=start + seconds, cycles=None)
        end = perf_counter()
        wall = end - start
        cpu1 = sum(os.times()[:2])
        mark1 = self._ask("mark")
        rtts = [r for c in per_client.values() for r in c["rtts"]]
        tail = tail_percentile(len(rtts), TAIL_PCT)
        admits = sum(c["admits"] for c in per_client.values())
        return {
            "wall_s": wall,
            "window": (start, end),
            # The server child does the work, so its RSS is the one reported.
            "peak_rss_mb": mark1["rss_mb"],
            "attempted": len(rtts),
            "failed": sum(c["failed"] for c in per_client.values()),
            "latencies": rtts,
            "rtt_by_rid": {
                rid: rtt for c in per_client.values() for rid, rtt in zip(c["rids"], c["rtts"])
            },
            "throughput_per_s": len(rtts) / wall,
            "latency_p50_ms": percentile(rtts, 50) * 1e3,
            "latency_tail_ms": percentile(rtts, tail) * 1e3,
            "tail_pct": tail,
            "admitted_share": sum(c["admitted"] for c in per_client.values()) / max(1, admits),
            # Eq. 1 sampled after every op: the mean live weight of each
            # client's tenant, summed over clients.
            "offloaded_gbps": sum(
                sum(c["weights"]) / len(c["weights"]) for c in per_client.values()
            ),
            "http_429": sum(c["http_429"] for c in per_client.values()),
            "loadgen_cpu_share": (cpu1 - cpu0) / wall,
            "server_cpu_share": (mark1["cpu_s"] - mark0["cpu_s"]) / wall,
            "escalated": mark1["escalated"] - mark0["escalated"],
            "queue_rejected": mark1["queue_rejected"] - mark0["queue_rejected"],
            "lags": mark1["lags"][len(mark0["lags"]):],
            "healthz": [t for c in self.clients for t in c.healthz(HEALTHZ_PROBES)]
            if rec is not None else [],
        }

    # -- after the window ------------------------------------------------------
    def _stop(self) -> dict:
        if self.stopped is None:
            for client in self.clients:
                client.conn.close()
            self.stopped = self._ask("stop")
            self.child.stdin.close()
            self.child.wait(60.0)
        return self.stopped

    def check(self, measured: dict) -> tuple[list[str], int, dict]:
        stopped = self._stop()
        problems = [f"invariant: {p}" for p in stopped["problems"]]
        if measured["failed"]:
            problems.append(f"{measured['failed']} replies were not 200 with ok")
        if stopped["standby_digest"] != stopped["primary_digest"]:
            problems.append(
                f"standby digest {stopped['standby_digest']} != "
                f"primary {stopped['primary_digest']}"
            )
        if self.child.returncode != 0:
            problems.append(f"server child exited with code {self.child.returncode}")
        return problems, measured["failed"], {"primary_digest": stopped["primary_digest"]}

    def recover(self) -> tuple[list[float], list[str], dict]:
        """Recover the primary's directory as the drained server left it
        and verify the digest; then journal a fixed tail of tenant cycles
        onto it and time ``recover_fabric`` on copies of that."""
        primary = os.path.join(self.root, "primary")
        served = self._stop()["primary_digest"]
        fabric, report = recover_fabric(primary, with_dataplane=False, checkpoint_every=0)
        problems = []
        if report.digest != served or not report.ok:
            problems.append(
                f"recovered digest {report.digest} != the server's {served}; "
                f"{list(report.problems)}"
            )
        for tenant_id, first, second in islice(make_chains(self.seed, CLIENTS), TAIL_CYCLES):
            fabric.admit(first)
            fabric.modify(tenant_id, second)
            fabric.evict(tenant_id)
        live = fabric.digest()
        fabric.durability.close()
        times, more, facts = timed_recoveries(
            primary, lambda copy: recover_fabric(copy, with_dataplane=False), live
        )
        return times, problems + more, facts

    def trace_spans(self, rec) -> list:
        """The traced child's spans (written when it stopped) plus the
        parent's own, which cover recovery.  Both processes read
        CLOCK_MONOTONIC, so their timestamps share one axis."""
        return spans_mod.load(self._stop()["spans"]) + rec.spans

    def blocking_path(self, measured: dict, spans, layers: dict, selfs: dict) -> tuple[dict, float]:
        """A request's wall is the client's round trip.  What lies outside
        the ``ShardWorkerPool.submit`` -> ``IntentTicket.result`` interval
        (HTTP parsing and reply, both TCP stacks, the client) is the
        server layer's self time by definition, replacing what the handler
        span saw of it.  Returns the extra metrics and the unattributed
        share of the summed round trips."""
        submitted = {s.rid: s.start for s in spans if s.name == "frontend.workers.submit"}
        resolved = {s.rid: s.end for s in spans if s.name == "frontend.queue.await"}
        busy = sum(s.end - s.start for s in spans if s.name == "frontend.workers.execute")
        outside = []
        wall = 0.0
        for rid, rtt in measured["rtt_by_rid"].items():
            if rid in submitted and rid in resolved:
                outside.append(rtt - (resolved[rid] - submitted[rid]))
                wall += rtt
        layers["frontend.server"] = sum(outside)
        inside = sum(
            selfs[s.id] for s in spans
            if s.rid in submitted and s.name != "frontend.server.run_intent"
        )
        extra = {
            "frontend.server.self_ms": percentile(outside, 50) * 1e3 if outside else 0.0,
            "frontend.workers.busy_share": busy / (measured["wall_s"] * serve.SWITCHES),
        }
        return extra, max(0.0, 1.0 - (sum(outside) + inside) / wall) if wall else 1.0

    def layer_metrics(self, measured: dict) -> dict:
        lags = measured["lags"]
        return {
            "frontend.server.roundtrip_ms": percentile(measured["healthz"], 50) * 1e3
            if measured["healthz"] else 0.0,
            "frontend.server.http_429": measured["http_429"],
            "frontend.queue.rejected": measured["queue_rejected"],
            "frontend.workers.escalated": measured["escalated"],
            "ha.standby.lag_p99_records": percentile(lags, 99) if lags else 0.0,
            "loadgen.cpu_share": measured["loadgen_cpu_share"],
            "server.cpu_share": measured["server_cpu_share"],
        }

    def install_spans(self, rec) -> None:
        # The layers run in the child, which wraps them itself when started
        # with --trace 1; the parent only records recovery.
        spans_mod.install_durability(rec)

    def close(self) -> None:
        try:
            self._stop()
        finally:
            if self.child.poll() is None:
                self.child.kill()
                self.child.wait()
