"""Command-line interface.

``sfp fig N --scale {smoke,quick,paper}`` regenerates evaluation figure N
(4-11), prints its table and shape checks and exits 1 if a check fails;
``sfp report`` writes every figure to EXPERIMENTS.md; ``sfp place`` runs
a placement algorithm over a synthesized workload; ``sfp fabric`` is the
one churn-replay command: it replays a synthesized tenant-churn stream
(or any saved trace, campaign traces from ``sfp scenario compile``
included) over a fabric of paper switches — a single switch is
``--switches 1`` — and prints throughput, latency percentiles,
rule churn and the bit-identity audit, with an optional ``--drain``
failover demo and a ``--prometheus`` export of the metrics registry after
sampled probe traffic.  ``sfp demo`` walks a packet through a virtualized
chain; ``sfp trace`` admits a recirculating chain under a control-plane
tracer and prints the causally linked span tree plus an INT-style packet
postcard; ``sfp recover`` rebuilds a controller or fabric from a
durability directory (``--wal-dir`` on replays) and ``sfp checkpoint``
snapshots + compacts one.  ``sfp scenario`` lists, compiles or replays
the declarative campaign library (diurnal curves, flash crowds,
correlated failures, rolling upgrades ...) with a fabric bit-identity
audit at every phase boundary.  ``sfp ha`` runs the high-availability
roles: ``demo`` (an in-process kill-primary / failover drill), ``primary``
/ ``standby`` (a real two-process pair shipping WAL frames over TCP), and
``status`` (lease + log state of a cluster directory).  ``--quick``
(``fabric`` and ``reoptimize``) shrinks a synthesized churn stream to
seconds.
"""

from __future__ import annotations

import argparse
import sys

from repro._version import __version__
from repro.errors import ReproError


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=None, help="RNG seed")


def _add_quick(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--quick", action="store_true",
        help="shrink the synthesized churn stream to 5 s",
    )


def _add_scale(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale", default="quick",
        help="figure sweep: smoke (seconds), quick (minutes; what "
             "EXPERIMENTS.md records) or paper (the paper's own sweep; slow)",
    )
    parser.add_argument("--seed", type=int, default=11, help="RNG seed")


def _cmd_fig(args: argparse.Namespace) -> int:
    from repro.experiments.report import run_figure

    number = int(args.number) if args.number.isdigit() else args.number
    report = run_figure(number, args.scale, args.seed)
    print(report.markdown())
    return 0 if report.ok else 1


def _cmd_place(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from repro.core.greedy import greedy_place
    from repro.core.ilp import solve_ilp
    from repro.core.rounding import solve_with_rounding
    from repro.core.verify import check_placement
    from repro.experiments.config import PAPER_SWITCH, PAPER_WORKLOAD
    from repro.traffic.workload import make_instance

    config = replace(PAPER_WORKLOAD, num_sfcs=args.num_sfcs)
    instance = make_instance(
        config,
        switch=PAPER_SWITCH,
        max_recirculations=args.recirculations,
        rng=args.seed,
    )
    if args.algorithm == "greedy":
        placement = greedy_place(instance)
    elif args.algorithm == "appro":
        placement = solve_with_rounding(instance, rng=args.seed).placement
    else:
        placement = solve_ilp(instance, time_limit=args.time_limit)
    problems = check_placement(placement)
    print(placement)
    for key, value in placement.summary().items():
        print(f"  {key:>18}: {value:.3f}")
    print(f"  feasibility: {'OK' if not problems else problems}")
    return 0 if not problems else 1


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.report import generate_report

    text = generate_report(args.scale, args.seed)
    with open(args.output, "w") as fh:
        fh.write(text)
    print(f"wrote {args.output}")
    return 0


def _paper_fabric(
    switches: int,
    link_capacity: float = 400.0,
    with_dataplane: bool = False,
):
    """The full-mesh fabric of paper switches ``fabric``, ``serve`` and
    ``ha`` run on."""
    from repro.experiments.config import PAPER_SWITCH, PAPER_WORKLOAD
    from repro.fabric import FabricOrchestrator, FabricTopology

    return FabricOrchestrator(
        FabricTopology.full_mesh(
            switches, spec=PAPER_SWITCH, link_capacity_gbps=link_capacity
        ),
        num_types=PAPER_WORKLOAD.num_types,
        with_dataplane=with_dataplane,
    )


def _churn(seed: int | None, events: int = 0, **knobs):
    """The paper-workload churn stream ``fabric``, ``serve --demo-events``
    and ``ha`` replay, with its config.  ``events`` > 0 keeps the first
    ``events`` of a stream just long enough to hold them (8 arrivals/s);
    otherwise ``knobs`` set the :class:`ChurnConfig` fields."""
    from dataclasses import replace

    from repro.controller import ChurnConfig, synthesize_churn
    from repro.experiments.config import PAPER_WORKLOAD

    if events:
        knobs = {"duration_s": max(1.0, events / 8.0), "arrival_rate_per_s": 8.0}
    config = ChurnConfig(workload=replace(PAPER_WORKLOAD, num_sfcs=0), **knobs)
    return config, synthesize_churn(config, rng=seed)[: events or None]


def _cmd_fabric(args: argparse.Namespace) -> int:
    from repro.controller import ChurnEngine, load_events, save_events

    fabric = _paper_fabric(
        args.switches, args.link_capacity, not args.no_dataplane
    )
    if args.wal_dir:
        from repro.durability import FabricDurability

        FabricDurability(args.wal_dir, fsync=args.fsync).attach(fabric)
        print(f"journaling to {args.wal_dir} (fsync={args.fsync})")
    if args.trace:
        events = load_events(args.trace)
    else:
        config, events = _churn(
            args.seed,
            duration_s=(5.0 if args.quick else args.duration),
            arrival_rate_per_s=args.rate,
            mean_lifetime_s=args.lifetime,
            modify_fraction=args.modify_fraction,
        )
        if args.save_trace:
            save_events(args.save_trace, events, seed=args.seed, config=config)
            print(f"wrote churn trace: {args.save_trace}")
    report = ChurnEngine(fabric).replay(events)
    print(f"fabric: {args.switches} switches, {len(fabric.links)} links")
    print(report.describe())
    summary = fabric.summary()
    print(f"live tenants: {summary['tenants']} "
          f"({summary['stitched_tenants']} stitched across switches)")
    for name, stats in summary["switches"].items():
        print(f"  {name}: {stats['tenants']} tenants, "
              f"backplane {stats['backplane_gbps']:.1f} Gbps")
    counters = fabric.metrics_snapshot()["counters"]
    for name in ("spillovers", "stitched"):
        print(f"  counter {name:>12}: {counters.get(name, 0)}")
    problems = fabric.check_invariant()
    print(f"fabric invariant: {'OK' if not problems else problems}")
    code = 1 if problems else 0

    if args.drain and not problems:
        victim = (
            args.drain
            if args.drain != "auto"
            else max(fabric.shards, key=lambda n: len(fabric.shards[n].tenants))
        )
        drain = fabric.drain(victim)
        print(drain.describe())
        if not args.no_dataplane and drain.rehomed:
            forwarding = sum(
                1 for t in drain.rehomed if fabric.probe_tenant(t)
            )
            print(f"  probes: {forwarding}/{drain.num_rehomed} re-homed "
                  f"chains forward end-to-end")
            code |= forwarding != drain.num_rehomed
        problems = fabric.check_invariant()
        print(f"fabric invariant after drain: "
              f"{'OK' if not problems else problems}")
        code |= bool(problems)

    if args.prometheus:
        # Probe traffic through the survivors' home shards gives the 1-in-64
        # postcard sampler packets to observe (churn alone is control plane).
        from repro.scenarios.runner import probe_traffic
        from repro.telemetry import PostcardCollector, render_prometheus

        collector = PostcardCollector(sample_every=64)
        for shard in fabric.shards.values():
            if shard.pipeline is not None:
                shard.pipeline.telemetry = collector
        probe_traffic(fabric, 64)
        collector.publish(fabric.metrics)
        text = render_prometheus(fabric.metrics)
        if args.prometheus == "-":
            print(text, end="")
        else:
            with open(args.prometheus, "w") as fh:
                fh.write(text)
            print(f"wrote {args.prometheus}")
    return code


def _cmd_recover(args: argparse.Namespace) -> int:
    from repro.durability import read_manifest, recover_controller, recover_fabric

    manifest = read_manifest(args.dir)
    if manifest.get("kind") == "fabric":
        fabric, report = recover_fabric(
            args.dir, with_dataplane=(False if args.no_dataplane else None)
        )
        print(report.describe())
        for note in report.notes:
            print(f"  note: {note}")
        for problem in report.problems:
            print(f"  problem: {problem}")
        summary = fabric.summary()
        print(f"live tenants: {summary['tenants']} "
              f"({summary['stitched_tenants']} stitched across switches)")
        problems = fabric.check_invariant()
        print(f"fabric invariant: {'OK' if not problems else problems}")
        return 0 if report.ok and not problems else 1
    controller, report = recover_controller(
        args.dir, with_dataplane=(False if args.no_dataplane else None)
    )
    print(report.describe())
    for problem in report.problems:
        print(f"  problem: {problem}")
    print(f"live tenants: {len(controller.tenants)}")
    print(f"state digest: {controller.state.digest()}")
    return 0 if report.ok else 1


def _cmd_checkpoint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.durability import (
        CheckpointStore,
        ControllerDurability,
        FabricDurability,
        read_manifest,
        recover_controller,
        recover_fabric,
        scan_wal,
    )

    manifest = read_manifest(args.dir)
    # Recovery replays the log and — when it verifies clean — takes a fresh
    # checkpoint and compacts; this command is that plus a status printout.
    if manifest.get("kind") == "fabric":
        _fabric, report = recover_fabric(
            args.dir, with_dataplane=(False if args.no_dataplane else None)
        )
        wal_name = FabricDurability.WAL_NAME
    else:
        _controller, report = recover_controller(
            args.dir, with_dataplane=(False if args.no_dataplane else None)
        )
        wal_name = ControllerDurability.WAL_NAME
    if not report.ok:
        print(f"not checkpointed — recovery failed: {report.describe()}")
        for problem in report.problems:
            print(f"  problem: {problem}")
        return 1
    store = CheckpointStore(args.dir)
    scan = scan_wal(Path(args.dir) / wal_name)
    print(f"checkpointed {manifest['kind']} at lsn {report.last_lsn} "
          f"(digest {report.digest})")
    print(f"checkpoints on disk: {store.lsns()}")
    print(f"wal: {len(scan.records)} records past lsn {scan.base_lsn}")
    return 0


def _cmd_scenario(args: argparse.Namespace) -> int:
    from repro.scenarios import (
        campaign_names,
        compile_scenario,
        get_campaign,
        load_spec,
        run_campaign,
        save_campaign,
    )

    if args.action == "list":
        for name in campaign_names():
            spec = get_campaign(name)
            print(
                f"{name:>20}: {len(spec.phases)} phases over "
                f"{spec.duration_s:.0f}s (seed {spec.seed}) — "
                f"{spec.description}"
            )
        return 0
    if args.spec_file:
        spec = load_spec(args.spec_file)
    elif args.name:
        spec = get_campaign(args.name)
    else:
        print(
            "scenario run/compile needs a campaign NAME or --spec FILE",
            file=sys.stderr,
        )
        return 2
    if args.smoke:
        spec = spec.shrunk(0.2)
    if args.action == "compile":
        campaign = compile_scenario(spec, args.seed)
        out = args.out or f"{spec.name}.jsonl"
        save_campaign(out, campaign)
        print(
            f"wrote {campaign.num_events} events to {out} "
            f"(trace {campaign.digest()})"
        )
        return 0
    if args.wal_dir:
        print(f"journaling to {args.wal_dir} (fsync={args.fsync})")
    fabric, report = run_campaign(
        spec,
        seed=args.seed,
        with_dataplane=args.dataplane,
        wal_dir=args.wal_dir,
        fsync=args.fsync,
        fastpath=args.fastpath,
        traffic_packets=args.traffic,
    )
    print(report.describe())
    summary = fabric.summary()
    print(f"live tenants: {summary['tenants']} "
          f"({summary['stitched_tenants']} stitched across switches)")
    if args.fastpath:
        stats = {
            "compiles": 0, "cache_hits": 0, "invalidations": 0,
            "compiled_packets": 0, "interpreted_packets": 0,
        }
        for shard in fabric.shards.values():
            if shard.fastpath is not None:
                for key in stats:
                    stats[key] += shard.fastpath.stats[key]
        print(
            "fastpath: "
            f"{stats['compiled_packets']} packets compiled, "
            f"{stats['interpreted_packets']} interpreted; "
            f"{stats['compiles']} compiles, {stats['cache_hits']} cache "
            f"hits, {stats['invalidations']} invalidations"
        )
    return 0 if report.ok else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.controller import ChurnEngine
    from repro.frontend import FrontendClient, FrontendServer, IntentQueue

    fabric = _paper_fabric(
        args.switches, args.link_capacity, not args.no_dataplane
    )
    if args.wal_dir:
        from repro.durability import FabricDurability

        FabricDurability(args.wal_dir, fsync=args.fsync).attach(fabric)
        print(f"journaling to {args.wal_dir} (fsync={args.fsync})")
    server = FrontendServer(
        fabric,
        host=args.host,
        port=args.port,
        queue=IntentQueue(capacity=args.queue_capacity),
    )
    server.start()
    print(f"serving {args.switches} switches on http://{server.address} "
          f"— one worker per shard")
    try:
        if args.demo_events:
            # Self-driving demo/CI mode: synthesize a short churn stream,
            # push it through the in-process client, then shut down.
            _config, events = _churn(args.seed, args.demo_events)
            engine = ChurnEngine(FrontendClient(server.pool))
            ok = sum(engine.apply(event).ok for event in events)
            print(f"demo: {ok}/{len(events)} intents accepted, "
                  f"{fabric.summary()['tenants']} tenants live")
        else:  # pragma: no cover — interactive serve loop
            import time

            while True:
                time.sleep(1.0)
    except KeyboardInterrupt:  # pragma: no cover
        print("\ndraining intent queue ...")
    finally:
        server.close()
    problems = fabric.check_invariant()
    print(f"fabric invariant after drain: {'OK' if not problems else problems}")
    return 0 if not problems else 1


def _cmd_ha(args: argparse.Namespace) -> int:
    import json
    import time
    from pathlib import Path

    from repro.controller import ChurnEngine

    root = Path(args.dir)
    node = args.node or args.action

    def make_fabric():
        return _paper_fabric(args.switches)

    if args.action == "status":
        from repro.durability import CheckpointStore, FabricDurability, scan_wal
        from repro.ha import LeaseStore

        lease = LeaseStore(root / "lease").read()
        print(f"lease: holder={lease.holder!r} epoch={lease.epoch} "
              f"max_epoch={lease.max_epoch} "
              f"expires_in={lease.deadline - time.time():+.1f}s")
        for role in ("primary", "standby"):
            directory = root / role
            scan = scan_wal(directory / FabricDurability.WAL_NAME)
            checkpoints = CheckpointStore(directory).lsns()
            print(f"{role}: wal {len(scan.records)} records past base lsn "
                  f"{scan.base_lsn} (last lsn {scan.last_lsn}), "
                  f"checkpoints {checkpoints}")
        return 0

    if args.action == "demo":
        from repro.ha import HaCluster

        cluster = HaCluster(
            root, make_fabric, ttl_s=args.ttl, checkpoint_every=16
        )
        cluster.start()
        print(f"primary elected at epoch {cluster.primary_lease.epoch}; "
              f"shipping to an in-process standby")
        _config, events = _churn(args.seed, args.events)
        engine = ChurnEngine(cluster.fabric)
        decided = 0
        acked = 0
        for event in events:
            decided += bool(engine.apply(event).ok)
            acked = cluster.durability.wal.last_lsn
            cluster.pump()
        print(f"drove {len(events)} churn events ({decided} accepted); "
              f"acked lsn {acked}, standby applied "
              f"{cluster.standby.applied_lsn} "
              f"({cluster.standby.checkpoints_restored} checkpoints shipped)")
        print(f"killing the primary (disk mode: {args.kill_mode}) ...")
        cluster.kill_primary(args.kill_mode)
        report = cluster.failover(max_wait_s=args.ttl * 10 + 5)
        print(report.describe())
        preserved = report.applied_lsn >= acked
        print(f"acknowledged ops preserved: "
              f"{'YES' if preserved else f'NO (lost {acked - report.applied_lsn})'}")
        from repro.errors import FencedError

        try:
            cluster.primary_lease.check_fence()
            print("FENCE BREACH: the deposed primary still passes its fence")
            preserved = False
        except FencedError:
            print(f"deposed primary fenced (epoch "
                  f"{report.epoch - 1} < {report.epoch})")
        cluster.close()
        return 0 if report.ok and preserved else 1

    from repro.ha import LeaseCoordinator, LeaseStore

    lease = LeaseCoordinator(node, LeaseStore(root / "lease"), ttl_s=args.ttl)
    if args.action == "primary":
        from repro.ha import SocketSink, start_primary

        sink = None
        if args.peer:
            host, _, port = args.peer.rpartition(":")
            sink = SocketSink(host or "127.0.0.1", int(port))
            print(f"shipping WAL frames to {args.peer}")
        fabric, durability, shipper = start_primary(
            lease, make_fabric, root / "primary", sink,
            fsync=args.fsync, checkpoint_every=64,
        )
        print(f"primary {node!r} at epoch {lease.epoch}, "
              f"journaling to {root / 'primary'}")
        _config, events = _churn(args.seed, args.events)
        engine = ChurnEngine(fabric)
        decided = 0
        for event in events:
            decided += bool(engine.apply(event).ok)
            lease.renew()
            if shipper is not None:
                shipper.pump()
        if shipper is not None:
            shipper.pump()
            shipper.close()
        print(f"drove {len(events)} churn events ({decided} accepted) to "
              f"lsn {durability.wal.last_lsn}, digest {fabric.digest()}")
        durability.close()
        lease.release()
        return 0

    if args.action == "standby":
        from repro.ha import ReplicationListener, StandbyReplica, take_over

        standby = StandbyReplica()
        host, _, port = args.listen.rpartition(":")
        listener = ReplicationListener(
            standby, host=host or "127.0.0.1", port=int(port)
        )
        print(f"standby {node!r} accepting replication on "
              f"{listener.host}:{listener.port} for {args.duration:.0f}s")
        deadline = time.time() + args.duration
        while time.time() < deadline:
            time.sleep(0.2)
        listener.close()
        print(json.dumps(standby.status(), indent=2, sort_keys=True))
        if not args.promote:
            return 0
        print("waiting out the primary lease ...")
        durability, report = take_over(
            lease, standby, root / "primary", root / "standby",
            max_wait_s=args.ttl * 10 + 5, poll_s=0.1, fsync=args.fsync,
        )
        print(f"promoted: {report.describe()}, digest {report.digest}")
        for problem in report.problems:
            print(f"  problem: {problem}")
        durability.close()
        return 0 if report.ok else 1

    raise SystemExit(f"unknown ha action {args.action}")  # pragma: no cover


def _cmd_reoptimize(args: argparse.Namespace) -> int:
    if args.url:
        # Drive a running frontend: POST /v1/reoptimize and print its
        # summary (the pass executes inside the server process).
        from repro.frontend import HttpFrontendClient

        options: dict = {
            "mode": args.mode,
            "min_benefit": args.min_benefit,
            "execute": not args.dry_run,
        }
        if args.max_moves is not None:
            options["max_moves"] = args.max_moves
        summary = HttpFrontendClient(args.url).reoptimize(**options)
        for key in sorted(summary):
            print(f"  {key:>20}: {summary[key]}")
        return 0 if summary.get("ok") else 1

    # Local demo: fragment a deliberately tight fabric with churn, then
    # run one re-optimization pass over the survivors.
    from dataclasses import replace

    from repro.controller import ChurnConfig, ChurnEngine, synthesize_churn
    from repro.core.spec import SwitchSpec
    from repro.experiments.config import PAPER_WORKLOAD
    from repro.fabric import FabricOrchestrator, FabricTopology

    spec = SwitchSpec(
        stages=4, blocks_per_stage=8, block_bits=6400, rule_bits=64,
        capacity_gbps=40.0,
    )
    topology = FabricTopology.full_mesh(
        args.switches, spec=spec, link_capacity_gbps=100.0,
        max_recirculations=1,
    )
    fabric = FabricOrchestrator(
        topology, num_types=6, with_dataplane=not args.no_dataplane
    )
    config = ChurnConfig(
        duration_s=(5.0 if args.quick else args.duration),
        arrival_rate_per_s=12.0,
        mean_lifetime_s=6.0,
        modify_fraction=0.25,
        workload=replace(
            PAPER_WORKLOAD, num_sfcs=0, num_types=6, avg_chain_length=3,
            chain_length_spread=2, rules_min=1, rules_max=4,
            mean_bandwidth_gbps=1.0, max_bandwidth_gbps=4.0,
        ),
    )
    events = synthesize_churn(config, rng=args.seed)
    ChurnEngine(fabric).replay(events)
    before = fabric.summary()
    print(f"after churn: {before['tenants']} tenants live, "
          f"{before['stitched_tenants']} stitched across switches")
    report = fabric.reoptimize(
        mode=args.mode,
        min_benefit=args.min_benefit,
        max_moves=args.max_moves,
        execute=not args.dry_run,
    )
    print(report.describe())
    for note in report.notes:
        print(f"  note: {note}")
    if report.migration is not None:
        for step in report.migration.results:
            print(f"  tenant {step.tenant_id}: {step.action}"
                  f"{' (' + step.reason + ')' if step.reason else ''}")
    problems = fabric.check_invariant()
    print(f"fabric invariant: {'OK' if not problems else problems}")
    return 0 if report.ok and not problems else 1


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.experiments.fig4_throughput import build_demo_pipeline
    from repro.traffic.flows import FlowGenerator

    pipeline, virtualizer = build_demo_pipeline(args.seed)
    gen = FlowGenerator(args.seed)
    flow = gen.flows(1, tenant_id=1)[0]
    result = pipeline.process(flow.make_packet(64), trace=True)
    print(f"pipeline: {pipeline}")
    print(f"packet delivered={result.delivered} passes={result.passes} "
          f"latency={result.latency_ns:.0f}ns")
    for pass_id, stage, table, action in result.trace:
        print(f"  pass {pass_id} stage {stage}: {table} -> {action}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import json

    from repro.core.spec import SFC
    from repro.dataplane.packet import Packet
    from repro.fabric import FabricOrchestrator, FabricTopology
    from repro.telemetry import Tracer

    topology = FabricTopology.full_mesh(args.switches)
    tracer = Tracer()
    fabric = FabricOrchestrator(topology, num_types=3, tracer=tracer)

    # A chain longer than the physical pipeline, so the folded placement
    # recirculates and the postcard shows multi-pass hops.
    length = args.chain_length
    sfc = SFC(
        name="traced-chain",
        nf_types=tuple((j % 3) + 1 for j in range(length)),
        rules=(2,) * length,
        bandwidth_gbps=1.0,
        tenant_id=1,
    )
    result = fabric.admit(sfc)
    print(f"admit tenant {sfc.tenant_id} ({length}-NF chain): "
          f"ok={result.ok} switches={result.switches}")
    if not result.ok:
        print(f"  rejected: {result.reason} ({result.detail})")
        return 1

    print("\ncontrol-plane trace (one admit, one causally linked tree):")
    for root in tracer.roots():
        print(tracer.render_tree(root))

    print("dataplane postcard (traced probe packet):")
    for switch in result.switches:
        shard = fabric.shards[switch]
        assert shard.pipeline is not None
        probe = shard.pipeline.process(
            Packet(tenant_id=sfc.tenant_id, pass_id=1), trace=True
        )
        assert probe.postcard is not None
        print(probe.postcard.describe())

    if args.chrome:
        with open(args.chrome, "w") as fh:
            json.dump(tracer.to_chrome_trace(), fh)
        print(f"\nwrote Chrome trace_event file: {args.chrome} "
              f"(load via chrome://tracing or https://ui.perfetto.dev)")
    if args.jsonl:
        with open(args.jsonl, "w") as fh:
            fh.write(tracer.export_jsonl())
        print(f"wrote span JSONL: {args.jsonl}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="sfp",
        description="SFP reproduction: SFC provision on programmable switches",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "fig", help="regenerate one paper figure (4-11) and check its shape"
    )
    p.add_argument("number", help="the paper's figure number, 4 to 11")
    _add_scale(p)
    p.set_defaults(func=_cmd_fig)

    p = sub.add_parser("place", help="run one placement algorithm")
    _add_common(p)
    p.add_argument("--algorithm", choices=("ilp", "appro", "greedy"), default="appro")
    p.add_argument("--num-sfcs", type=int, default=25)
    p.add_argument("--recirculations", type=int, default=2)
    p.add_argument("--time-limit", type=float, default=60.0)
    p.set_defaults(func=_cmd_place)

    p = sub.add_parser(
        "fabric",
        help="replay a churn stream or a compiled campaign trace over a "
             "fabric (--switches 1 = one switch), with optional drain demo "
             "and Prometheus export",
    )
    _add_common(p)
    _add_quick(p)
    p.add_argument(
        "--switches", type=int, default=4, help="number of fabric switches"
    )
    p.add_argument(
        "--link-capacity", type=float, default=400.0,
        help="inter-switch link capacity (Gbps)",
    )
    p.add_argument(
        "--trace", default=None,
        help="replay a JSONL trace (`--save-trace` or `sfp scenario "
             "compile` output) instead of synthesizing one",
    )
    p.add_argument("--duration", type=float, default=20.0, help="stream horizon (s)")
    p.add_argument("--rate", type=float, default=8.0, help="tenant arrivals per second")
    p.add_argument("--lifetime", type=float, default=5.0, help="mean tenant lifetime (s)")
    p.add_argument(
        "--modify-fraction", type=float, default=0.2,
        help="fraction of tenants issuing one mid-lifetime chain modification",
    )
    p.add_argument(
        "--drain", nargs="?", const="auto", default=None, metavar="SWITCH",
        help="after the replay, drain SWITCH (default: the busiest) and "
             "verify every re-homed chain still forwards",
    )
    p.add_argument(
        "--no-dataplane", action="store_true",
        help="control-plane only (skip the behavioural pipeline mirror)",
    )
    p.add_argument(
        "--save-trace", default=None, metavar="OUT",
        help="also write the synthesized churn stream as a JSONL trace "
             "(header records the seed, so the file alone replays the run)",
    )
    p.add_argument(
        "--wal-dir", default=None, metavar="DIR",
        help="journal every committed fabric op to DIR (recover later "
             "with `sfp recover DIR`)",
    )
    p.add_argument(
        "--fsync", choices=("always", "batch", "off"), default="batch",
        help="WAL fsync policy when --wal-dir is set",
    )
    p.add_argument(
        "--prometheus", default=None, metavar="OUT",
        help="after the replay, push 64 probe packets per live tenant under "
             "1-in-64 postcard sampling and write the metrics registry in "
             "Prometheus text format to OUT (- = stdout)",
    )
    p.set_defaults(func=_cmd_fabric)

    p = sub.add_parser(
        "recover",
        help="rebuild a controller/fabric from a durability directory "
             "(checkpoint + WAL replay) and verify it bit-for-bit",
    )
    p.add_argument("dir", help="durability directory (the --wal-dir of a run)")
    p.add_argument(
        "--no-dataplane", action="store_true",
        help="recover control-plane only, regardless of the journaled mode",
    )
    p.set_defaults(func=_cmd_recover)

    p = sub.add_parser(
        "checkpoint",
        help="checkpoint a durability directory: recover, snapshot the "
             "state, compact the write-ahead log",
    )
    p.add_argument("dir", help="durability directory (the --wal-dir of a run)")
    p.add_argument(
        "--no-dataplane", action="store_true",
        help="recover control-plane only, regardless of the journaled mode",
    )
    p.set_defaults(func=_cmd_checkpoint)

    p = sub.add_parser(
        "scenario",
        help="list, compile or replay declarative campaign scenarios with "
             "phase-boundary fabric audits",
    )
    p.add_argument(
        "action", choices=("list", "run", "compile"),
        help="list the campaign library, replay a campaign against a "
             "fabric, or compile one to a JSONL event trace",
    )
    p.add_argument(
        "name", nargs="?", default=None,
        help="library campaign name (see `sfp scenario list`)",
    )
    p.add_argument(
        "--spec", dest="spec_file", default=None, metavar="FILE",
        help="load the scenario from a JSON/YAML spec file instead of "
             "the library",
    )
    p.add_argument("--seed", type=int, default=None, help="RNG seed override")
    p.add_argument(
        "--smoke", action="store_true",
        help="time-shrunk replay (5x shorter phases) for CI",
    )
    p.add_argument(
        "--dataplane", action="store_true",
        help="mirror installs into behavioural pipelines (~10x slower)",
    )
    p.add_argument(
        "--fastpath", action="store_true",
        help="attach the compiled dataplane fast path to every shard "
             "pipeline (implies --dataplane)",
    )
    p.add_argument(
        "--traffic", type=int, default=0, metavar="N",
        help="inject N packets per live tenant at every phase boundary "
             "(needs the data plane; with --fastpath this drives the "
             "compiled kernels end to end)",
    )
    p.add_argument(
        "--wal-dir", default=None, metavar="DIR",
        help="journal every committed fabric op to a write-ahead log in "
             "DIR (recover later with `sfp recover DIR`)",
    )
    p.add_argument(
        "--fsync", choices=("always", "batch", "off"), default="batch",
        help="WAL fsync policy when --wal-dir is set",
    )
    p.add_argument(
        "-o", "--out", default=None, metavar="OUT",
        help="output path for `compile` (default: <campaign>.jsonl)",
    )
    p.set_defaults(func=_cmd_scenario)

    p = sub.add_parser(
        "serve",
        help="run the tenant-facing HTTP/JSON API server over a fabric "
             "(one shard worker per switch, ordered intent queue)",
    )
    _add_common(p)
    p.add_argument("--host", default="127.0.0.1", help="bind address")
    p.add_argument(
        "--port", type=int, default=8080,
        help="listen port (0 = ephemeral, printed at startup)",
    )
    p.add_argument(
        "--switches", type=int, default=4,
        help="fabric switches = shard workers",
    )
    p.add_argument(
        "--link-capacity", type=float, default=400.0,
        help="inter-switch link capacity (Gbps)",
    )
    p.add_argument(
        "--queue-capacity", type=int, default=4096,
        help="intent queue bound (submissions past it get HTTP 429)",
    )
    p.add_argument(
        "--no-dataplane", action="store_true",
        help="control-plane only (skip the behavioural pipeline mirror)",
    )
    p.add_argument(
        "--wal-dir", default=None, metavar="DIR",
        help="journal every committed fabric op to a write-ahead log in "
             "DIR (recover later with `sfp recover DIR`); a quiesce "
             "checkpoint is taken on graceful shutdown",
    )
    p.add_argument(
        "--fsync", choices=("always", "batch", "off"), default="batch",
        help="WAL fsync policy when --wal-dir is set",
    )
    p.add_argument(
        "--demo-events", type=int, default=0, metavar="N",
        help="self-driving mode: push N synthesized churn intents through "
             "the in-process client, then drain and exit (CI/tests)",
    )
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "ha",
        help="high availability: lease-elected primary, WAL-shipping "
             "standby, fenced failover (demo / primary / standby / status)",
    )
    p.add_argument(
        "action", choices=("demo", "primary", "standby", "status"),
        help="demo = in-process kill-primary drill; primary/standby = a "
             "real two-process pair over TCP; status = lease + log state",
    )
    p.add_argument(
        "--dir", required=True, metavar="DIR",
        help="cluster root directory (holds lease/, primary/, standby/)",
    )
    p.add_argument("--seed", type=int, default=None, help="RNG seed")
    p.add_argument(
        "--switches", type=int, default=3, help="fabric switches"
    )
    p.add_argument(
        "--events", type=int, default=40,
        help="churn events the primary drives",
    )
    p.add_argument(
        "--ttl", type=float, default=1.0, help="lease TTL (seconds)"
    )
    p.add_argument(
        "--kill-mode",
        choices=("keep", "lose-unsynced", "tear", "corrupt"), default="tear",
        help="demo: how the dead primary's WAL tail is mutilated",
    )
    p.add_argument(
        "--node", default=None,
        help="this node's lease name (default: the action name)",
    )
    p.add_argument(
        "--fsync", choices=("always", "batch", "off"), default="always",
        help="WAL fsync policy (always = zero lost acknowledged ops)",
    )
    p.add_argument(
        "--peer", default=None, metavar="HOST:PORT",
        help="primary: ship WAL frames to this standby listener",
    )
    p.add_argument(
        "--listen", default="127.0.0.1:7070", metavar="HOST:PORT",
        help="standby: replication listen address",
    )
    p.add_argument(
        "--duration", type=float, default=10.0,
        help="standby: seconds to serve replication before exiting",
    )
    p.add_argument(
        "--promote", action="store_true",
        help="standby: after serving, wait out the lease and take over",
    )
    p.set_defaults(func=_cmd_ha)

    p = sub.add_parser(
        "reoptimize",
        help="fleet-wide re-optimization: re-solve tenant placement and "
             "hitlessly migrate the wins (local demo, or --url to drive a "
             "running frontend)",
    )
    _add_common(p)
    _add_quick(p)
    p.add_argument(
        "--url", default=None, metavar="URL",
        help="POST /v1/reoptimize to a running `sfp serve` frontend "
             "instead of running the local demo",
    )
    p.add_argument(
        "--mode", choices=("auto", "ilp", "greedy"), default="auto",
        help="solver mode (auto = ILP for small fleets, greedy at scale)",
    )
    p.add_argument(
        "--min-benefit", type=float, default=0.5,
        help="cost/benefit gate: skip moves scoring below this",
    )
    p.add_argument(
        "--max-moves", type=int, default=None,
        help="cap the number of executed migrations",
    )
    p.add_argument(
        "--dry-run", action="store_true",
        help="solve and plan only; migrate nothing",
    )
    p.add_argument(
        "--switches", type=int, default=3,
        help="local demo: number of fabric switches",
    )
    p.add_argument(
        "--duration", type=float, default=20.0,
        help="local demo: churn horizon used to fragment the fabric (s)",
    )
    p.add_argument(
        "--no-dataplane", action="store_true",
        help="local demo: control-plane only (skips migration probes)",
    )
    p.set_defaults(func=_cmd_reoptimize)

    p = sub.add_parser("demo", help="trace a packet through a virtualized chain")
    _add_common(p)
    p.set_defaults(func=_cmd_demo)

    p = sub.add_parser(
        "trace",
        help="admit a chain under the control-plane tracer and print the "
             "span tree plus an INT-style packet postcard",
    )
    _add_common(p)
    p.add_argument(
        "--switches", type=int, default=2, help="number of fabric switches"
    )
    p.add_argument(
        "--chain-length", type=int, default=10,
        help="NFs in the traced chain (longer than the pipeline => the "
             "postcard shows recirculation passes)",
    )
    p.add_argument(
        "--chrome", default=None, metavar="OUT",
        help="also export the spans as a Chrome trace_event JSON file",
    )
    p.add_argument(
        "--jsonl", default=None, metavar="OUT",
        help="also export the spans as JSONL, one span per line",
    )
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser(
        "report", help="run all figures and write the EXPERIMENTS.md report"
    )
    _add_scale(p)
    p.add_argument("-o", "--output", default="EXPERIMENTS.md")
    p.set_defaults(func=_cmd_report)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:  # a typed refusal is one line, not a traceback
        print(f"sfp: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
