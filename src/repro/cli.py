"""Command-line interface.

Twelve subcommands::

    repro topology       generate a topology, print its Table 5.1
                         attributes, optionally dump it in CAIDA format
    repro route          compute and print routes toward one destination
    repro avoid          run the avoid-an-AS application for one triple
    repro experiment     regenerate a paper table/figure on a chosen profile
    repro failure-sweep  measure BGP vs MIRO recovery from sampled failures
    repro verify         fault-injection campaigns cross-checking every
                         route-computation path and routing invariant
    repro converge       run Ch. 7 convergence: fair rounds under zero
                         delays, the discrete-event engine under
                         delays, MRAI and jitter
    repro churn          seeded churn scenarios (flap storms, rolling
                         deployment, negotiation races) on the event engine
    repro stats          run a small instrumented workload and export the
                         metrics snapshot (json / prom / text)
    repro serve          run the asyncio MIRO query daemon (route lookups,
                         negotiations, stats) as JSON lines over TCP
    repro loadgen        drive the query service with a seeded Zipf /
                         open-loop workload, in-process or over TCP
    repro bench          compare two BENCH_<sha>.json trajectories and
                         fail on hot-path regressions

Every command takes ``--profile``/``--seed`` (or ``--topology FILE`` to
load a CAIDA-format dump) so runs are reproducible, plus the
observability flags ``--trace FILE`` (write a chrome://tracing span dump)
and ``--log-level LEVEL`` (enable structured logging on stderr).
"""

from __future__ import annotations

import argparse
import json
import pickle
import sys
from typing import List, Optional

from .bgp import kernels
from .errors import ReproError
from .miro import ExportPolicy, miro_attempt, single_path_attempt
from .obs import configure_logging, get_registry, get_tracer
from .session import SimulationSession
from .sourcerouting import reachable_avoiding
from .topology import PROFILES, generate_named, load, summarize
from .topology import dumps as dump_topology


def _add_topology_args(
    parser: argparse.ArgumentParser, default_profile: str = "gao-2005"
) -> None:
    parser.add_argument(
        "--profile", default=default_profile, choices=sorted(PROFILES),
        help=f"generator profile (default: {default_profile})",
    )
    parser.add_argument("--seed", type=int, default=0, help="generator seed")
    parser.add_argument(
        "--topology", metavar="FILE",
        help="load a CAIDA-format topology instead of generating one",
    )


def _add_kernel_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--kernel", choices=kernels.kernel_names(), default=None,
        help="settling kernel backend for route computation "
             f"(default: ${kernels.KERNEL_ENV_VAR} or "
             f"{kernels.DEFAULT_KERNEL}; unavailable backends fall "
             "back to scalar)",
    )


def _add_obs_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace", metavar="FILE",
        help="record spans and write a chrome://tracing JSON dump here",
    )
    parser.add_argument(
        "--flamegraph", metavar="FILE",
        help="record spans and write a collapsed-stack flamegraph file "
             "here (feed to flamegraph.pl / speedscope); a per-phase "
             "self-vs-cumulative rollup is printed on stderr",
    )
    parser.add_argument(
        "--log-level", choices=["debug", "info", "warning", "error"],
        help="emit structured logs at this level on stderr",
    )
    parser.add_argument(
        "--log-json", action="store_true",
        help="render structured logs as JSON lines instead of key=value "
             "(implies --log-level warning when no level is given)",
    )


def _add_session_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--stats", action="store_true",
        help="print routing-cost telemetry (cache hits, tables computed, "
             "wall-clock) after the command",
    )
    _add_pool_args(parser)


def _add_pool_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--parallel", choices=["auto", "on", "off"], default="auto",
        help="route-table fan-out across the persistent worker pool "
             "(default: auto)",
    )
    parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="pool worker processes (default: one per CPU)",
    )
    parser.add_argument(
        "--shards", type=int, default=None, metavar="N",
        help="destination-range shards per pooled fan-out "
             "(default: 4 per worker; shards feed a shared work queue, "
             "so idle workers steal the next range)",
    )


def _build_graph(args: argparse.Namespace):
    if args.topology:
        return load(args.topology)
    return generate_named(args.profile, seed=args.seed)


def _build_session(args: argparse.Namespace, graph) -> SimulationSession:
    parallel = {"auto": "auto", "on": True, "off": False}[
        getattr(args, "parallel", "auto")
    ]
    return SimulationSession(
        graph, parallel=parallel,
        max_workers=getattr(args, "workers", None),
        shards=getattr(args, "shards", None),
    )


def _maybe_print_stats(args: argparse.Namespace, session: SimulationSession) -> None:
    if getattr(args, "stats", False):
        print()
        print(session.stats.render())
        print()
        print(get_registry().render_text())


def _cmd_topology(args: argparse.Namespace) -> int:
    graph = _build_graph(args)
    summary = summarize(graph, args.topology or args.profile)
    print(f"name:               {summary.name}")
    print(f"ASes:               {summary.n_ases}")
    print(f"links:              {summary.n_links}")
    print(f"customer-provider:  {summary.n_customer_provider}")
    print(f"peering:            {summary.n_peering}")
    print(f"sibling:            {summary.n_sibling}")
    print(f"stub ASes:          {summary.n_stubs}")
    print(f"multi-homed ASes:   {summary.n_multihomed}")
    snapshot = graph.snapshot()
    print(f"snapshot:           {snapshot.n} indices, "
          f"{snapshot.num_directed_edges} directed edges, "
          f"{len(pickle.dumps(snapshot))} pickled bytes")
    available = ", ".join(kernels.kernel_names(available_only=True))
    print(f"kernel:             {kernels.active().name} "
          f"(available: {available})")
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(dump_topology(graph))
        print(f"wrote topology to {args.out}")
    return 0


def _cmd_route(args: argparse.Namespace) -> int:
    graph = _build_graph(args)
    session = _build_session(args, graph)
    table = session.compute(args.destination)
    if args.source is not None:
        route = table.best(args.source)
        if route is None:
            print(f"AS {args.source} has no route to AS {args.destination}")
            return 1
        print(" -> ".join(map(str, route.path)),
              f"[{route.route_class.name.lower()}]")
        for candidate in table.candidates(args.source):
            if candidate.path != route.path:
                print("alternate:", " -> ".join(map(str, candidate.path)),
                      f"[{candidate.route_class.name.lower()}]")
        _maybe_print_stats(args, session)
        return 0
    for asn in table.routed_ases()[: args.limit]:
        print(f"{asn:>6}: {' -> '.join(map(str, table.best(asn).path))}")
    _maybe_print_stats(args, session)
    return 0


def _cmd_avoid(args: argparse.Namespace) -> int:
    graph = _build_graph(args)
    session = _build_session(args, graph)
    table = session.compute(args.destination)
    default = table.default_path(args.source)
    if default is None:
        print(f"AS {args.source} cannot reach AS {args.destination} at all")
        return 1
    print("default path:", " -> ".join(map(str, default)))
    plain = single_path_attempt(table, args.source, args.avoid)
    print(f"single-path BGP: {'ok via ' + '-'.join(map(str, plain.full_path)) if plain.success else 'cannot avoid'}")
    policy = ExportPolicy.from_label(args.policy)
    attempt = miro_attempt(
        table, args.source, args.avoid, policy,
        max_depth=args.max_depth,
    )
    if attempt.success:
        print(
            f"MIRO {policy.value}: success ({attempt.method}) via "
            f"{' -> '.join(map(str, attempt.full_path))} "
            f"[{attempt.negotiations} negotiations, "
            f"{attempt.paths_received} paths received]"
        )
    else:
        print(
            f"MIRO {policy.value}: failed after {attempt.negotiations} "
            f"negotiations"
        )
    reachable = reachable_avoiding(
        graph, args.source, args.destination, args.avoid
    )
    print(f"source routing: {'possible' if reachable else 'impossible'}")
    _maybe_print_stats(args, session)
    return 0 if attempt.success else 2


def _cmd_failure_sweep(args: argparse.Namespace) -> int:
    from .experiments import render_table, run_failure_sweep

    graph = _build_graph(args)
    session = _build_session(args, graph)
    name = args.topology or args.profile
    sweep = run_failure_sweep(
        graph, name, n_events=args.events,
        as_failure_fraction=args.as_fraction,
        n_destinations=args.destinations, seed=args.seed, session=session,
    )
    print(render_table(
        ["Recovery scheme", "Recovered"],
        sweep.as_rows(),
        title=(
            f"failure sweep on {name}: {sweep.n_link_events} link / "
            f"{sweep.n_as_events} AS failures, "
            f"{sweep.disrupted_sources} disrupted sources"
        ),
    ))
    print(f"mean affected-set fraction: {sweep.mean_affected_fraction:.1%}")
    _maybe_print_stats(args, session)
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from .experiments import (
        render_series,
        render_table,
        run_counterexamples,
        run_diversity,
        run_incremental_deployment,
        run_negotiation_state,
        run_overhead_comparison,
        run_success_rates,
        run_traffic_control,
    )

    graph = _build_graph(args)
    session = _build_session(args, graph)
    name = args.topology or args.profile
    which = args.which
    if which == "table5.2":
        rates = run_success_rates(graph, name, seed=args.seed, session=session)
        print(render_table(
            ["Name", "Single", "Multi/s", "Multi/e", "Multi/a", "Source"],
            [rates.as_row()], title="Table 5.2",
        ))
    elif which == "table5.3":
        rows = run_negotiation_state(graph, seed=args.seed, session=session)
        print(render_table(
            ["Policy", "Success Rate", "AS#/tuple", "Path#/tuple"],
            [r.as_row() for r in rows], title="Table 5.3",
        ))
    elif which == "fig5.2":
        series = run_diversity(graph, seed=args.seed, session=session)
        rows = [
            (label, f"{s.fraction_no_alternate:.1%}", f"{s.median:.0f}",
             f"{s.quantile(0.95):.0f}")
            for label, s in sorted(series.items())
        ]
        print(render_table(
            ["Scenario", "no-alternate", "median", "p95"], rows,
            title="Fig 5.2/5.3",
        ))
    elif which == "fig5.4":
        curve = run_incremental_deployment(graph, seed=args.seed,
                                           session=session)
        for policy in ExportPolicy:
            print(render_series(
                f"top-degree {policy.value}", curve.series(policy)
            ))
    elif which == "fig5.6":
        result = run_traffic_control(graph, seed=args.seed, session=session)
        for (policy, model), curve in sorted(result.curves.items()):
            print(render_series(f"{policy} {model}", curve.points()))
    elif which == "ch7":
        for outcome in run_counterexamples():
            state = "converged" if outcome.converged else "OSCILLATES"
            print(f"fig {outcome.figure} {outcome.mode.value:>12}: {state} "
                  f"({outcome.rounds} rounds)")
    elif which == "overhead":
        comparison = run_overhead_comparison(graph, seed=args.seed,
                                             session=session)
        print(render_table(
            ["Protocol", "Messages", "vs BGP"], comparison.as_rows(),
            title="Control-plane overhead",
        ))
    elif which == "all":
        from .experiments import full_report

        print(full_report(graph, name, seed=args.seed, session=session,
                          include_stats=args.stats, verify=args.verify))
        if args.stats:
            print()
            print(get_registry().render_text())
        return 0
    else:  # pragma: no cover - argparse restricts choices
        raise ReproError(f"unknown experiment {which!r}")
    _maybe_print_stats(args, session)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    """Run the route-equivalence verification harness (``repro verify``).

    Seeded fault-injection campaigns cross-check every route-computation
    path (full / incremental / session-serial / session-pool-sharded /
    service-batched) and the stable-state invariants after every injected
    event; exit code 1 when anything diverges or violates.
    """
    from .verify import run_campaigns

    def make_graph():
        return _build_graph(args)

    def progress(campaign: int, outcome) -> None:
        state = "ok" if outcome.ok else "FAIL"
        print(
            f"campaign {campaign + 1}/{args.campaigns}: "
            f"{outcome.steps} events, {outcome.checks} checks [{state}]",
            file=sys.stderr,
        )

    report = run_campaigns(
        make_graph,
        seed=args.seed,
        campaigns=args.campaigns,
        n_events=args.events,
        n_destinations=args.destinations,
        include_pool=not args.no_pool,
        include_service=not args.no_service,
        tunnel_campaigns=args.tunnel_campaigns,
        topology=args.topology or args.profile,
        progress=progress if not args.quiet else None,
    )
    print(report.render())
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report.to_dict(), handle, indent=2)
            handle.write("\n")
        print(f"wrote verify report to {args.out}")
    return 0 if report.ok else 1


def _mode_from(label: str):
    from .convergence import GuidelineMode

    for mode in GuidelineMode:
        if mode.value == label:
            return mode
    raise ReproError(f"unknown guideline mode {label!r}")


def _delays_from(args: argparse.Namespace):
    from .events import DelayModel

    return DelayModel(
        link_delay=args.link_delay,
        link_jitter=args.link_jitter,
        negotiation_delay=args.negotiation_delay,
        mrai=args.mrai,
        activation_jitter=args.activation_jitter,
    )


def _add_delay_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--link-delay", type=float, default=0.0,
                        help="per-link propagation delay in simulated "
                             "seconds (default 0)")
    parser.add_argument("--link-jitter", type=float, default=0.0,
                        help="uniform extra per-delivery delay (default 0)")
    parser.add_argument("--negotiation-delay", type=float, default=0.0,
                        help="responder-to-requester update delay (default 0)")
    parser.add_argument("--mrai", type=float, default=1.0,
                        help="per-AS MRAI / activation interval (default 1)")
    parser.add_argument("--activation-jitter", type=float, default=0.0,
                        help="uniform initial-activation offset (default 0)")


def _cmd_converge(args: argparse.Namespace) -> int:
    """Ch. 7 convergence on the counterexamples (``repro converge``)."""
    from .convergence import GuidelineMode, fig_7_1_system, fig_7_2_system

    factory = {"7.1": fig_7_1_system, "7.2": fig_7_2_system}[args.figure]
    modes = (
        list(GuidelineMode) if args.mode == "all" else [_mode_from(args.mode)]
    )
    delays = _delays_from(args)
    for mode in modes:
        result = factory(mode).run(
            max_rounds=args.max_rounds, seed=args.run_seed, delays=delays,
        )
        state = (
            "converged" if result.converged
            else "OSCILLATES" if result.oscillating
            else "exhausted"
        )
        print(f"fig {args.figure} {mode.value:>12}: {state} "
              f"({result.rounds} rounds) sim_time={result.sim_time:g} "
              f"activations={result.activations}")
    return 0


def _cmd_churn(args: argparse.Namespace) -> int:
    """Seeded churn scenarios on the event engine (``repro churn``)."""
    from .experiments import render_table, run_churn_sweep, to_jsonable

    scenario_map = {
        "flap-storm": "flap_storm",
        "rolling": "rolling",
        "negotiation-race": "negotiation_race",
    }
    scenarios = (
        tuple(scenario_map.values()) if args.scenario == "all"
        else (scenario_map[args.scenario],)
    )
    delays = _delays_from(args)
    sweep = run_churn_sweep(
        n_topologies=args.topologies,
        demands_per_topology=args.demands,
        seed=args.seed,
        mode=_mode_from(args.mode),
        delays=delays,
        max_rounds=args.max_rounds,
        scenarios=scenarios,
    )
    rows = [
        (
            run.scenario, str(run.topology_seed),
            "yes" if run.converged else "NO",
            str(run.injections), str(run.activations),
            f"{run.sim_time:.2f}", f"{run.max_recovery:.2f}",
        )
        for run in sweep.runs
    ]
    print(render_table(
        ["Scenario", "Seed", "Converged", "Deltas", "Activations",
         "Sim time", "Recovery"],
        rows,
        title=f"churn sweep: {len(sweep.runs)} runs, "
              f"{sweep.converged_runs} converged",
    ))
    print(f"mean recovery time: {sweep.mean_recovery():.2f} sim-seconds")
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(to_jsonable(sweep), handle, indent=2)
            handle.write("\n")
        print(f"wrote churn results to {args.out}")
    return 0 if sweep.converged_runs == len(sweep.runs) else 2


def _render_pool_info(pool: dict) -> str:
    """Human-readable fan-out pool section for ``repro stats``."""
    mode = pool["mode"] or "unused"
    transport = {
        "shm": "shared-memory descriptor (zero-copy attach)",
        "pickle": "pickled snapshot per worker (no shared memory)",
        "unused": "no pooled fan-out ran",
    }[mode]
    shards = pool["shards"] or f"auto ({pool['shard_factor']} per worker)"
    return "\n".join([
        "fan-out pool:",
        f"  policy / workers:      {pool['parallel']} / {pool['max_workers']}",
        f"  shards per fan-out:    {shards}",
        f"  transport:             {transport}",
        f"  published version:     {pool['published_version']}",
        f"  shared segment bytes:  {pool['shared_bytes']}",
        f"  ship bytes per attach: {pool['ship_bytes']}",
        f"  parallel fan-outs:     {pool['parallel_fanouts']}",
    ])


def _cmd_stats(args: argparse.Namespace) -> int:
    """Run a small instrumented workload and export the metrics snapshot.

    The workload exercises every instrumented subsystem — route
    computation (twice, so the cache-hit counters move), and one
    negotiation-state experiment (so the §3.3 message counters move) —
    then renders the registry in the requested format.
    """
    from .experiments import run_negotiation_state

    graph = _build_graph(args)
    session = _build_session(args, graph)
    destinations = graph.ases[: args.destinations]
    session.compute_many(destinations)
    session.compute_many(destinations)  # replay: every table is a cache hit
    run_negotiation_state(
        graph, n_destinations=min(3, args.destinations),
        sources_per_destination=4, seed=args.seed, session=session,
    )
    registry = get_registry()
    pool = session.pool_info()
    session.close()
    if args.format == "json":
        payload = json.dumps(
            {
                "kernel": kernels.describe(),
                "metrics": registry.snapshot(),
                "session_stats": session.stats.to_dict(),
                "pool": pool,
            },
            indent=2, sort_keys=True,
        )
    elif args.format == "prom":
        payload = registry.render_prometheus()
    else:
        payload = (
            f"active kernel: {kernels.active().name}\n\n"
            + session.stats.render() + "\n\n"
            + _render_pool_info(pool) + "\n\n" + registry.render_text()
        )
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(payload + "\n")
        print(f"wrote {args.format} metrics snapshot to {args.out}")
    else:
        print(payload)
    return 0


def _cmd_bench_compare(args: argparse.Namespace) -> int:
    """Gate the current trajectory against a baseline (``bench compare``)."""
    from .obs.bench import compare, load_trajectory

    report = compare(
        load_trajectory(args.baseline),
        load_trajectory(args.current),
        threshold_pct=args.threshold,
    )
    print(report.render())
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report.to_dict(), handle, indent=2)
            handle.write("\n")
        print(f"wrote compare report to {args.out}")
    return 0 if report.ok else 1


def _add_service_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--max-batch", type=int, default=64,
                        help="distinct destinations per settle batch "
                             "(default 64)")
    parser.add_argument("--max-delay", type=float, default=0.002,
                        help="micro-batching window in seconds (default "
                             "0.002)")
    parser.add_argument("--max-pending", type=int, default=1024,
                        help="in-flight fills before shedding (default 1024)")
    parser.add_argument("--settle-threads", type=int, default=2,
                        help="concurrent settle batches (default 2)")


def _service_config(args: argparse.Namespace):
    from .service import ServiceConfig

    return ServiceConfig(
        max_batch=args.max_batch,
        max_delay=args.max_delay,
        max_pending=args.max_pending,
        settle_threads=args.settle_threads,
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the asyncio MIRO query daemon on a TCP port."""
    import asyncio

    from .miro.runtime import MiroRuntime
    from .service import MiroService, serve

    graph = _build_graph(args)
    session = _build_session(args, graph)
    runtime = MiroRuntime(graph, seed=args.seed)

    async def run() -> None:
        async with MiroService(
            session, _service_config(args), runtime=runtime
        ) as service:
            ready = asyncio.get_running_loop().create_future()
            endpoint = asyncio.get_running_loop().create_task(
                serve(service, args.host, args.port, ready=ready)
            )
            port = await ready
            print(f"serving {len(graph)} ASes on {args.host}:{port} "
                  "(Ctrl-C to stop)")
            try:
                await endpoint
            finally:
                endpoint.cancel()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("\ndraining... done")
    finally:
        _maybe_print_stats(args, session)
        session.close()
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    """Generate seeded Zipf/open-loop query load, in-process or remote."""
    import asyncio
    import random

    from .service import WorkloadConfig, run_workload, run_workload_client

    graph = _build_graph(args)
    rng = random.Random(args.workload_seed)
    population = sorted(rng.sample(graph.ases,
                                   min(args.destinations, len(graph))))
    rng.shuffle(population)  # popularity rank independent of AS number
    config = WorkloadConfig(
        destinations=tuple(population),
        requests=args.requests,
        rate=args.rate,
        zipf_s=args.zipf,
        seed=args.workload_seed,
        churn_every=args.churn_every or None,
        negotiate_every=args.negotiate_every or None,
    )

    if args.connect:
        host, _, port = args.connect.rpartition(":")
        result = asyncio.run(
            run_workload_client(host or "127.0.0.1", int(port), config)
        )
        print(result.render())
        return 0

    from .miro.runtime import MiroRuntime
    from .service import MiroService

    session = _build_session(args, graph)
    runtime = MiroRuntime(graph, seed=args.seed)

    async def run():
        async with MiroService(
            session, _service_config(args), runtime=runtime
        ) as service:
            return await run_workload(service, config)

    try:
        result = asyncio.run(run())
        print(result.render())
        _maybe_print_stats(args, session)
    finally:
        session.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MIRO: multi-path interdomain routing — reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    topology = sub.add_parser("topology", help="generate/inspect a topology")
    _add_topology_args(topology)
    _add_obs_args(topology)
    _add_kernel_args(topology)
    topology.add_argument("--out", help="dump CAIDA-format topology here")
    topology.set_defaults(func=_cmd_topology)

    route = sub.add_parser("route", help="compute BGP routes")
    _add_topology_args(route)
    _add_obs_args(route)
    _add_kernel_args(route)
    _add_session_args(route)
    route.add_argument("--destination", type=int, required=True)
    route.add_argument("--source", type=int)
    route.add_argument("--limit", type=int, default=20,
                       help="rows to print without --source")
    route.set_defaults(func=_cmd_route)

    avoid = sub.add_parser("avoid", help="avoid-an-AS application")
    _add_topology_args(avoid)
    _add_obs_args(avoid)
    _add_kernel_args(avoid)
    _add_session_args(avoid)
    avoid.add_argument("--source", type=int, required=True)
    avoid.add_argument("--destination", type=int, required=True)
    avoid.add_argument("--avoid", type=int, required=True)
    avoid.add_argument("--policy", default="/e",
                       help="export policy: /s, /e, or /a (default /e)")
    avoid.add_argument("--max-depth", type=int, default=1,
                       help="negotiation depth (2 enables §3.3 recursion)")
    avoid.set_defaults(func=_cmd_avoid)

    experiment = sub.add_parser("experiment", help="regenerate a result")
    _add_topology_args(experiment)
    _add_obs_args(experiment)
    _add_kernel_args(experiment)
    _add_session_args(experiment)
    experiment.add_argument(
        "which",
        choices=["table5.2", "table5.3", "fig5.2", "fig5.4", "fig5.6",
                 "ch7", "overhead", "all"],
    )
    experiment.add_argument(
        "--verify", action="store_true",
        help="audit the session's routing tables after the report "
             "(invariants + fresh-computation equivalence; 'all' only)",
    )
    experiment.set_defaults(func=_cmd_experiment)

    failures = sub.add_parser(
        "failure-sweep",
        help="BGP vs MIRO recovery from sampled link/AS failures",
    )
    _add_topology_args(failures)
    _add_obs_args(failures)
    _add_kernel_args(failures)
    _add_session_args(failures)
    failures.add_argument("--events", type=int, default=12,
                          help="failure events to sample (default 12)")
    failures.add_argument("--as-fraction", type=float, default=0.25,
                          help="fraction of events failing a whole AS "
                               "instead of one link (default 0.25)")
    failures.add_argument("--destinations", type=int, default=5,
                          help="destinations scored per event (default 5)")
    failures.set_defaults(func=_cmd_failure_sweep)

    verify = sub.add_parser(
        "verify",
        help="route-equivalence verification: fault-injection campaigns "
             "cross-checking every computation path + invariants",
    )
    _add_topology_args(verify, default_profile="verify-500")
    _add_obs_args(verify)
    _add_kernel_args(verify)
    verify.add_argument("--campaigns", type=int, default=25,
                        help="fault-injection campaigns to run (default 25)")
    verify.add_argument("--events", type=int, default=8,
                        help="fault events per campaign (default 8)")
    verify.add_argument("--destinations", type=int, default=6,
                        help="destinations cross-checked per campaign "
                             "(default 6)")
    verify.add_argument("--tunnel-campaigns", type=int, default=2,
                        help="tunnel-consistency sub-campaigns (default 2)")
    verify.add_argument("--no-pool", action="store_true",
                        help="skip the process-pool comparison path")
    verify.add_argument("--no-service", action="store_true",
                        help="skip the query-daemon batched comparison path")
    verify.add_argument("--quiet", action="store_true",
                        help="suppress per-campaign progress on stderr")
    verify.add_argument("--out", metavar="FILE",
                        help="write the full JSON report here")
    verify.set_defaults(func=_cmd_verify)

    converge = sub.add_parser(
        "converge",
        help="Ch. 7 convergence on the counterexamples: fair rounds under "
             "zero delays, the discrete-event engine otherwise",
    )
    _add_obs_args(converge)
    _add_delay_args(converge)
    converge.add_argument("--figure", choices=["7.1", "7.2"], default="7.1",
                          help="counterexample system to run (default 7.1)")
    converge.add_argument("--mode",
                          choices=["unrestricted", "B", "C", "D", "E", "all"],
                          default="all",
                          help="guideline mode (default: all five)")
    converge.add_argument("--max-rounds", type=int, default=200)
    converge.add_argument("--run-seed", type=int, default=None,
                          help="seed for activation shuffles and jitter")
    converge.set_defaults(func=_cmd_converge)

    churn = sub.add_parser(
        "churn",
        help="seeded churn scenarios (flap storms, rolling deployment, "
             "negotiation races) on the event-driven simulator",
    )
    _add_obs_args(churn)
    _add_delay_args(churn)
    churn.add_argument("--scenario",
                       choices=["flap-storm", "rolling", "negotiation-race",
                                "all"],
                       default="all",
                       help="churn scenario to drive (default: all)")
    churn.add_argument("--mode",
                       choices=["unrestricted", "B", "C", "D", "E"],
                       default="B", help="guideline mode (default B)")
    churn.add_argument("--seed", type=int, default=0,
                       help="sweep seed (topologies, demands, schedules)")
    churn.add_argument("--topologies", type=int, default=3,
                       help="random topologies per scenario (default 3)")
    churn.add_argument("--demands", type=int, default=5,
                       help="tunnel demands per topology (default 5)")
    churn.add_argument("--max-rounds", type=int, default=200)
    churn.add_argument("--out", metavar="FILE",
                       help="write the JSON results here")
    churn.set_defaults(func=_cmd_churn)

    stats = sub.add_parser(
        "stats",
        help="run a small instrumented workload and export metrics",
    )
    _add_topology_args(stats)
    _add_obs_args(stats)
    _add_kernel_args(stats)
    _add_pool_args(stats)
    stats.add_argument("--destinations", type=int, default=4,
                       help="destinations in the workload (default 4)")
    stats.add_argument("--format", choices=["json", "prom", "text"],
                       default="text",
                       help="snapshot format (default: text)")
    stats.add_argument("--out", metavar="FILE",
                       help="write the snapshot here instead of stdout")
    stats.set_defaults(func=_cmd_stats)

    serve = sub.add_parser(
        "serve",
        help="run the asyncio MIRO query daemon (JSON-lines over TCP)",
    )
    _add_topology_args(serve)
    _add_obs_args(serve)
    _add_kernel_args(serve)
    _add_session_args(serve)
    _add_service_args(serve)
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=7547,
                       help="TCP port; 0 picks a free one (default 7547)")
    serve.set_defaults(func=_cmd_serve)

    loadgen = sub.add_parser(
        "loadgen",
        help="drive the query service with seeded Zipf/open-loop load, "
             "in-process by default or against --connect HOST:PORT",
    )
    _add_topology_args(loadgen)
    _add_obs_args(loadgen)
    _add_kernel_args(loadgen)
    _add_session_args(loadgen)
    _add_service_args(loadgen)
    loadgen.add_argument("--requests", type=int, default=10000,
                         help="lookups to issue (default 10000)")
    loadgen.add_argument("--rate", type=float, default=0.0,
                         help="open-loop arrivals per second "
                              "(default 0: as fast as possible)")
    loadgen.add_argument("--destinations", type=int, default=64,
                         help="destination population size (default 64)")
    loadgen.add_argument("--zipf", type=float, default=1.1,
                         help="Zipf popularity exponent (default 1.1)")
    loadgen.add_argument("--workload-seed", type=int, default=0,
                         help="workload seed: destinations, popularity, "
                              "arrivals (default 0)")
    loadgen.add_argument("--churn-every", type=int, default=0,
                         help="flap a link every N requests (in-process "
                              "only; default off)")
    loadgen.add_argument("--negotiate-every", type=int, default=0,
                         help="MIRO negotiation every N requests "
                              "(in-process only; default off)")
    loadgen.add_argument("--connect", metavar="HOST:PORT",
                         help="drive a running `repro serve` endpoint "
                              "instead of an in-process service "
                              "(lookup-only; regenerate the same "
                              "topology args the server used)")
    loadgen.set_defaults(func=_cmd_loadgen)

    bench = sub.add_parser(
        "bench",
        help="gate a BENCH_<sha>.json trajectory against a baseline",
    )
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)

    bench_compare = bench_sub.add_parser(
        "compare",
        help="compare two trajectory files; exit 1 when a gated hot-path "
             "metric regressed past the threshold",
    )
    bench_compare.add_argument("baseline", help="baseline BENCH_*.json")
    bench_compare.add_argument("current", help="current BENCH_*.json")
    bench_compare.add_argument("--threshold", type=float, default=10.0,
                               help="regression threshold in percent "
                                    "(default 10)")
    bench_compare.add_argument("--out", metavar="FILE",
                               help="write the JSON compare report here")
    bench_compare.set_defaults(func=_cmd_bench_compare)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    tracer = get_tracer()
    trace_path = getattr(args, "trace", None)
    flame_path = getattr(args, "flamegraph", None)
    if trace_path or flame_path:
        tracer.enable()
    if getattr(args, "log_level", None) or getattr(args, "log_json", False):
        configure_logging(
            getattr(args, "log_level", None) or "warning",
            json_lines=getattr(args, "log_json", False),
        )
    # --kernel installs the process-wide backend override for the run;
    # restored afterwards so embedding callers (tests) are unaffected.
    previous_kernel = kernels.set_active(getattr(args, "kernel", None)) \
        if getattr(args, "kernel", None) else None
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if getattr(args, "kernel", None):
            kernels.set_active(previous_kernel)
        if flame_path:
            from .obs import profile as obs_profile

            stacks = obs_profile.write_collapsed(
                flame_path, tracer.events()
            )
            print(obs_profile.render_rollup(tracer.events()),
                  file=sys.stderr)
            print(f"wrote {stacks} collapsed stacks to {flame_path}",
                  file=sys.stderr)
        if trace_path:
            tracer.write(trace_path)
        if trace_path or flame_path:
            tracer.disable()
        if trace_path:
            print(f"wrote chrome://tracing dump to {trace_path}",
                  file=sys.stderr)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
