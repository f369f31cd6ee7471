"""The server side of ``intent_http``, run as a child process.

Builds a 4-switch roomy fabric without a dataplane, journals it with
``fsync=always`` under an ``HaCluster`` whose in-process standby is pumped
every 10 ms, and serves it over HTTP.  The parent (``wl_http.py``) talks to
it over stdin/stdout, one JSON object per line:

* ``ready`` is printed once the listener is bound;
* ``mark`` answers with this process's CPU times, RSS and counters;
* ``stop`` ships what is left, compares the standby's digest with the
  primary's, drains and closes the server, checks the invariant, writes
  the spans (traced runs) and exits.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "..", "src"))
sys.path.insert(0, HERE)

from repro.experiments.config import PAPER_SWITCH  # noqa: E402
from repro.fabric import FabricOrchestrator, FabricTopology, make_partitioner  # noqa: E402
from repro.frontend import FrontendServer  # noqa: E402
from repro.ha import HaCluster  # noqa: E402

import spans as spans_mod  # noqa: E402

SWITCHES = 4
NUM_TYPES = 10
PUMP_EVERY_S = 0.010

CONFIG = {
    "switches": SWITCHES, "switch": PAPER_SWITCH.to_dict(), "num_types": NUM_TYPES,
    "with_dataplane": False, "fsync": "always", "partitioner": "hash",
    "pump_every_s": PUMP_EVERY_S, "standby": "in-process",
}


def make_fabric() -> FabricOrchestrator:
    topology = FabricTopology.full_mesh(SWITCHES, spec=PAPER_SWITCH)
    return FabricOrchestrator(
        topology,
        num_types=NUM_TYPES,
        partitioner=make_partitioner("hash"),
        with_dataplane=False,
    )


class Pump(threading.Thread):
    """Ships the WAL to the standby on a fixed cadence and samples how far
    behind the standby is just before each beat."""

    def __init__(self, cluster: HaCluster) -> None:
        super().__init__(name="bench-pump", daemon=True)
        self.cluster = cluster
        self.halt = threading.Event()
        self.lags: list[int] = []
        self.error: BaseException | None = None

    def run(self) -> None:
        cluster = self.cluster
        try:
            while not self.halt.wait(PUMP_EVERY_S):
                self.lags.append(
                    cluster.durability.wal.last_lsn - cluster.standby.applied_lsn
                )
                cluster.pump()
        except BaseException as exc:  # noqa: BLE001 — reported by "stop"
            self.error = exc


def mark(server: FrontendServer, cluster: HaCluster, pump: Pump) -> dict:
    times = os.times()
    pool = server.pool.snapshot()
    return {
        "cpu_s": times.user + times.system,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "escalated": sum(w["escalated"] for w in pool["workers"].values()),
        "queue_rejected": pool["queue"]["rejected_full"],
        "lags": pump.lags[:],
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()

    rec = None
    if args.trace:
        rec = spans_mod.Recorder()
        spans_mod.install_frontend(rec)
        spans_mod.install_fabric(rec)
        spans_mod.install_controller_path(rec)
        spans_mod.install_durability(rec)
        spans_mod.install_ha(rec)

    cluster = HaCluster(
        args.root, make_fabric, ttl_s=30.0, fsync="always", with_dataplane=False
    )
    cluster.start()
    server = FrontendServer(
        cluster.fabric, port=0, fence=cluster.primary_lease.check_fence
    ).start()
    pump = Pump(cluster)
    pump.start()

    def say(**fields) -> None:
        sys.stdout.write(json.dumps(fields) + "\n")
        sys.stdout.flush()

    say(event="ready", address=server.address)
    for line in sys.stdin:
        command = line.strip()
        if command == "mark":
            say(event="mark", **mark(server, cluster, pump))
        elif command == "stop":
            break
    pump.halt.set()
    pump.join(10.0)
    # Every reply is out, so the journal is complete: ship it, then drain
    # the server (its quiesce checkpoint compacts the journal) and ship that.
    cluster.pump()
    server.close()
    cluster.pump()
    primary = cluster.fabric.digest()
    problems = list(cluster.fabric.check_invariant())
    if pump.error is not None or pump.is_alive():
        problems.append(f"pump thread failed: {pump.error!r}")
    standby = cluster.standby.fabric.digest()
    cluster.close()
    spans_file = None
    if rec is not None:
        rec.uninstall()
        spans_file = os.path.join(args.root, "server.spans.tsv")
        spans_mod.dump(rec.spans, spans_file)
    say(
        event="stopped",
        primary_digest=primary,
        standby_digest=standby,
        problems=problems,
        spans=spans_file,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
