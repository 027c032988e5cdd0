"""One benchmark workload, run in its own process.

``run.py`` starts this file once per untraced or traced run::

    python3 perfbench/workloads.py --workload NAME --seed N --seconds S --trace 0|1

and reads the JSON object it prints as its last line.  The program under
``src/`` is driven only through its public API.
"""

from __future__ import annotations

import argparse
import asyncio
import faulthandler
import gc
import hashlib
import json
import os
import random
import resource
import signal
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import stats  # noqa: E402
import tracing  # noqa: E402

#: Every workload sets up this many times; ``setup_s`` is the median.
SETUP_REPEATS = 3
#: Paper workloads run closed-loop passes for ``--seconds``, at least this many.
MIN_PASSES = 2
#: The paper workloads' sampling seed, the same in every pass and run:
#: their cost moves with the sample (paper-datasets: 7.8 to 10.4 s a pass
#: over sampling seeds 0-4; paper-internet10k: a 24% spread over seeds
#: 0-9), which leaves no room for machine drift under a 0.25 bound.
SAMPLE_SEED = 0

#: Service workloads: the destination population and its popularity.
POPULATION = 256
ZIPF_S = 1.1
#: Offered lookup rate (1/s) at which service-read reports its latency.
READ_RATE = 1000.0
#: Fixed offered rates (1/s) of service-read's search for its highest rate.
RATE_LADDER = (2000.0, 3000.0, 4000.0, 5000.0, 6000.0)
RATE_STEP_SECONDS = 1.5
#: A rate is met when p99 lookup latency and generator lateness stay
#: under this limit, nothing fails or is shed and the backlog drains.
P99_LIMIT_S = 0.025
#: service-churn: arrival rate, a flap every N arrivals, a negotiation
#: in place of every M-th lookup.
CHURN_RATE = 250.0
CHURN_EVERY = 400
NEGOTIATE_EVERY = 50
NEGOTIATION_DESTINATIONS = 2
#: At most this many sampled lookup answers are recomputed and compared.
MAX_CHECKED_ANSWERS = 120

DIGESTS_FILE = os.path.join(HERE, "digests.json")

#: Section titles every full_report must carry.
REPORT_TITLES = (
    "Table 5.1", "Fig 5.1", "Fig 5.2/5.3", "Table 5.2", "Table 5.3",
    "Fig 5.4", "Fig 5.6/5.7", "§7 failure sweep", "Fig 7.1/7.2",
    "Ch. 7 guideline sweep", "Control-plane overhead",
)


def now() -> float:
    return time.perf_counter()


def digest(parts: Sequence[str]) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
        h.update(b"\0")
    return h.hexdigest()


def load_digests() -> Dict[str, Dict[str, str]]:
    with open(DIGESTS_FILE) as handle:
        return json.load(handle)


def check_digests(workload: str, digests: Sequence[Tuple[int, str]],
                  recorded: Dict[str, Dict[str, str]]) -> List[str]:
    """Problems for any pass whose digest differs from the recorded one."""
    known = recorded.get(workload, {})
    return [
        f"{workload}: digest of pass seed {sseed} is {value[:12]}, "
        f"recorded {known[str(sseed)][:12]}"
        for sseed, value in digests
        if str(sseed) in known and known[str(sseed)] != value
    ]


class Run:
    """Everything one workload process measures and checks."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.recorder = tracing.Recorder() if trace else tracing.NullRecorder()
        self.session_stats: List[object] = []
        self.setup_s: List[float] = []
        self.eval_s: List[float] = []
        self.ops_s: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.digests: List[Tuple[int, str]] = []
        #: human-readable metrics: name -> (value, unit, sample count)
        self.named: Dict[str, Tuple[float, str, int]] = {}
        self.layers: Dict[str, float] = {}
        self.windows: List[Tuple[float, float]] = []
        self.cpu_s = 0.0
        #: CPU seconds of the timed phase and the operations it served
        self.timed_cpu_s = 0.0
        self.timed_ops = 0
        if trace:
            tracing.install(self.recorder)
            self.session_stats = tracing.session_stats_collector()

    def window(self, start: float, cpu_start: float) -> None:
        """Close one measured window (a set-up or a timed phase)."""
        self.windows.append((start, now()))
        self.cpu_s += time.process_time() - cpu_start

    def timing(self, name: str, samples: Sequence[float]) -> None:
        """Record a latency sample set (seconds) as median and tail in ms."""
        if not samples:
            return
        self.named[f"{name}_p50_ms"] = (
            stats.median(samples) * 1e3, "ms", len(samples))
        found = stats.tail(samples)
        if found is not None:
            q, value = found
            self.named[f"{name}_{stats.label(q)}_ms"] = (
                value * 1e3, "ms", len(samples))

    def result(self) -> Dict[str, object]:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": (stats.median(self.setup_s), "s", len(self.setup_s)),
            "eval_s": (stats.median(self.eval_s), "s", len(self.eval_s)),
            "peak_rss_mb": (peak, "MB", 1),
            "op_p50_ms": (stats.median(self.ops_s) * 1e3, "ms",
                          len(self.ops_s)),
            "op_cpu_ms": (self.timed_cpu_s / self.timed_ops * 1e3, "ms",
                          self.timed_ops),
        }
        self.named["op_p90_ms"] = (
            stats.percentile(self.ops_s, 0.90) * 1e3, "ms", len(self.ops_s))
        self.named["fail_ratio"] = (
            self.failed / self.attempted if self.attempted else 0.0,
            "ratio", self.attempted)
        return {
            "workload": self.workload,
            "seed": self.seed,
            "correct": not self.problems,
            "problems": self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
            "named": self.named,
            "cpu_s": self.cpu_s,
            "layers": self.layers,
        }


# ----------------------------------------------------------------------
# paper workloads
# ----------------------------------------------------------------------
def churn_sweep():
    """The Ch. 7 churn sweep at ``repro churn``'s defaults."""
    from repro.convergence import GuidelineMode
    from repro.events import DelayModel
    from repro.experiments import run_churn_sweep

    return run_churn_sweep(
        n_topologies=3, demands_per_topology=5, seed=0,
        mode=GuidelineMode.GUIDELINE_B,
        delays=DelayModel(link_delay=0.0, link_jitter=0.0,
                          negotiation_delay=0.0, mrai=1.0,
                          activation_jitter=0.0),
        max_rounds=200,
    )


def churn_outcomes(sweep) -> str:
    return json.dumps([
        [r.scenario, r.topology_seed, r.converged, r.injections,
         r.activations, repr(r.sim_time), repr(r.max_recovery)]
        for r in sweep.runs
    ])


def closed_loop(run: Run, one_pass) -> None:
    """Run passes for ``run.seconds`` (at least :data:`MIN_PASSES`); each
    pass returns the seconds it timed."""
    gc.collect()  # not the set-ups' garbage into the timed phase
    start, cpu = now(), time.process_time()
    while len(run.eval_s) < MIN_PASSES or now() - start < run.seconds:
        run.eval_s.append(one_pass())
    run.timed_cpu_s = time.process_time() - cpu
    run.timed_ops = len(run.ops_s)
    run.window(start, cpu)


def datasets_setup():
    from repro.experiments import DATASETS
    from repro.topology import generator

    return [(ds, generator.generate_topology(ds.profile, seed=ds.seed))
            for ds in DATASETS]


def datasets_pass(run: Run, _graphs, sseed: int) -> float:
    """``full_report`` on each Table 5.1 data set, then the churn sweep.

    Every pass reports on freshly generated graphs, as each
    ``repro experiment all`` process does: a report's failure sweep
    leaves its graph's neighbour order changed (a known defect, see
    README.md), which changes the next report on that graph object.
    """
    from repro.experiments import full_report
    from repro.session import SimulationSession

    graphs = datasets_setup()
    start = now()
    parts = []
    for ds, graph in graphs:
        version = graph.version
        t0 = now()
        with SimulationSession(graph) as session:
            text = full_report(graph, ds.name, seed=sseed, session=session,
                               include_stats=False)
        run.ops_s.append(now() - t0)
        run.attempted += 1
        parts.append(text)
        missing = [t for t in REPORT_TITLES if t not in text]
        if missing:
            run.problems.append(f"{ds.name} report lacks {missing}")
        if graph.version != version:
            run.problems.append(f"{ds.name} graph left at a new version")
    t0 = now()
    with run.recorder.span("experiments.churn_sweep"):
        sweep = churn_sweep()
    run.ops_s.append(now() - t0)
    run.attempted += 1
    if sweep.converged_runs != len(sweep.runs):
        run.problems.append(
            f"churn sweep: {sweep.converged_runs}/{len(sweep.runs)} "
            "runs converged")
    run.layers["convergence.churn_activations"] = (
        run.layers.get("convergence.churn_activations", 0.0)
        + sum(r.activations for r in sweep.runs))
    parts.append(churn_outcomes(sweep))
    run.digests.append((sseed, digest(parts)))
    return now() - start


def internet10k_setup():
    from repro.topology import generator

    return generator.generate_topology(generator.INTERNET_10K, seed=0)


def internet10k_pass(run: Run, graph, sseed: int) -> float:
    """Table 5.2 and Fig. 5.2 at 32 destinations on the batched kernel."""
    from repro.bgp import kernels
    from repro.experiments import run_diversity, run_success_rates, to_jsonable
    from repro.session import SimulationSession

    kernels.set_active("batched")
    session = SimulationSession(graph)
    try:
        t0 = now()
        with run.recorder.span("experiments.table_5_2_success_rates"):
            rates = run_success_rates(graph, "internet-10k",
                                      n_destinations=32, seed=sseed,
                                      session=session)
        t1 = now()
        with run.recorder.span("experiments.fig_5_2_diversity"):
            series = run_diversity(graph, n_destinations=32, seed=sseed,
                                   session=session)
        t2 = now()
        fanouts = session.stats.parallel_fanouts
    finally:
        session.close()
    run.ops_s.extend((t1 - t0, t2 - t1))
    run.attempted += 2
    run.named["pool_fanouts_per_pass"] = (float(fanouts), "count", 1)
    if rates.n_triples == 0 or len(series) != 6:
        run.problems.append(
            f"pass seed {sseed}: {rates.n_triples} triples, "
            f"{len(series)} diversity curves")
    run.digests.append((sseed, digest([
        json.dumps(to_jsonable(rates), sort_keys=True),
        json.dumps(to_jsonable(series), sort_keys=True),
    ])))
    return t2 - t0


PAPER = {
    "paper-datasets": (datasets_setup, datasets_pass),
    "paper-internet10k": (internet10k_setup, internet10k_pass),
}


def paper_workload(run: Run) -> None:
    setup, one_pass = PAPER[run.workload]
    state = None
    for _ in range(SETUP_REPEATS):
        state = None  # let the previous copy go before building the next
        t0, cpu = now(), time.process_time()
        state = setup()
        run.setup_s.append(now() - t0)
        run.window(t0, cpu)
    closed_loop(run, lambda: one_pass(run, state, SAMPLE_SEED))


# ----------------------------------------------------------------------
# service workloads
# ----------------------------------------------------------------------
class ServiceSetup:
    """One set-up of the service workloads: graph, session, warm service."""

    def __init__(self, churn: bool) -> None:
        self.churn = churn
        self.graph = None
        self.session = None
        self.service = None
        self.population: List[int] = []
        self.negotiations: List[Tuple[int, int, int]] = []

    async def start(self) -> None:
        from repro.miro.runtime import MiroRuntime
        from repro.service import MiroService
        from repro.session import SimulationSession
        from repro.topology import generator

        self.graph = generator.generate_topology(generator.GAO_2005, seed=2005)
        self.session = SimulationSession(self.graph)
        runtime = MiroRuntime(self.graph, seed=0) if self.churn else None
        self.service = MiroService(self.session, runtime=runtime)
        await self.service.start()
        rng = random.Random("population")
        # sample order is the popularity rank
        self.population = rng.sample(self.graph.ases, POPULATION)
        # One fill from this thread starts the session's fork-based pool
        # while no settle thread runs: a pool worker forked during another
        # thread's fan-out can inherit the held resource-tracker lock and
        # hang forever (a known defect, see README.md).  The lookups after
        # it are all cache hits.
        self.session.compute_many(self.population)
        await asyncio.gather(*(self.service.lookup(d)
                               for d in self.population))
        if self.churn:
            await self._originate(rng, runtime)

    async def _originate(self, rng: random.Random, runtime) -> None:
        """Originate the negotiation destinations, one tunnel each, and
        list requester/responder pairs that can negotiate toward them."""
        ases = self.graph.ases
        targets = self.population[:NEGOTIATION_DESTINATIONS]
        for destination in targets:
            requester = rng.choice([a for a in ases if a != destination])
            responder = min(self.graph.neighbors(requester))
            await self.service.negotiate(requester, responder, destination)
        for destination in targets:
            found = 0
            while found < 32:
                requester = rng.choice(ases)
                route = runtime.engine.best(requester, destination)
                if requester == destination or route is None \
                        or len(route.path) < 2:
                    continue
                self.negotiations.append(
                    (requester, route.path[1], destination))
                found += 1

    async def stop(self) -> None:
        await self.service.drain()
        self.session.close()


def check_answers(graph, samples, down_at) -> List[str]:
    """Recompute sampled lookup answers on the graph version they came
    from and report every mismatch.

    ``graph`` must be back at its start version; each sample's version is
    rebuilt by failing the links ``down_at`` lists for it, then reverted.
    """
    from repro.bgp.routing import compute_routes
    from repro.topology.delta import TopologyDelta

    by_version: Dict[int, List[Tuple[int, object]]] = {}
    for version, destination, table in samples[:MAX_CHECKED_ANSWERS]:
        by_version.setdefault(version, []).append((destination, table))
    problems = []
    ases = graph.ases
    for version, answers in sorted(by_version.items()):
        applied = [TopologyDelta.link_down(a, b).apply(graph)
                   for a, b in down_at[version]]
        try:
            fresh: Dict[int, object] = {}
            for destination, table in answers:
                if destination not in fresh:
                    fresh[destination] = compute_routes(graph, destination)
                expected = fresh[destination]
                wrong = [a for a in ases if table.best(a) != expected.best(a)]
                if wrong:
                    problems.append(
                        f"lookup of {destination} at version {version}: "
                        f"{len(wrong)} ASes differ from a fresh compute_routes")
        finally:
            for delta in reversed(applied):
                delta.revert()
    return problems


def check_negotiations(negotiated) -> List[str]:
    problems = []
    for request, record in negotiated:
        if record is None:
            continue
        tunnel = record.tunnel
        if (tunnel.upstream != request.requester
                or tunnel.downstream != request.responder
                or tunnel.destination != request.destination
                or request.requester in tunnel.path):
            problems.append(f"negotiation {request} returned {tunnel}")
    return problems


def registry_counts() -> Dict[str, float]:
    from repro.obs import get_registry

    snap = get_registry().snapshot()

    def total(name: str, field: str = "value") -> float:
        family = snap.get(name)
        if family is None:
            return 0.0
        return float(sum(s[field] for s in family["samples"]))

    return {
        "batches": total("repro_service_batch_destinations", "count"),
        "batched": total("repro_service_batch_destinations", "sum"),
        "coalesced": total("repro_service_coalesced_total"),
        "shed": total("repro_service_shed_total"),
    }


async def service_workload(run: Run, churn: bool) -> None:
    from driver import LOOKUP, CHURN, NEGOTIATE, OpenLoopDriver, schedule

    setup = None
    for _ in range(SETUP_REPEATS):
        if setup is not None:
            await setup.stop()
        t0, cpu = now(), time.process_time()
        setup = ServiceSetup(churn)
        await setup.start()
        run.setup_s.append(now() - t0)
        run.window(t0, cpu)

    graph = setup.graph
    start_version = graph.version
    gc.collect()  # not the set-ups' garbage into the timed phase
    driver = OpenLoopDriver(setup.service, random.Random("churn"),
                            recorder=run.recorder)
    rng = random.Random(f"{run.seed}:arrivals")
    before = registry_counts()
    t0, cpu = now(), time.process_time()
    if churn:
        requests = schedule(rng, CHURN_RATE, run.seconds, setup.population,
                            ZIPF_S, churn_every=CHURN_EVERY,
                            negotiate_every=NEGOTIATE_EVERY,
                            negotiations=setup.negotiations)
    else:
        requests = schedule(rng, READ_RATE, run.seconds, setup.population,
                            ZIPF_S)
    phase = await driver.run(requests)
    run.timed_cpu_s = time.process_time() - cpu
    run.timed_ops = phase.total_attempted
    await driver.unwind()
    after = registry_counts()

    run.eval_s.append(phase.makespan)
    run.ops_s.extend(phase.latencies[LOOKUP])
    run.attempted += phase.total_attempted
    run.failed += phase.total_failed
    for error in phase.errors:
        print(f"perfbench: failed {error}", file=sys.stderr)
    run.timing("lookup", phase.latencies[LOOKUP])
    run.timing("late", phase.lateness)
    if churn:
        run.timing("churn", phase.latencies[CHURN])
        run.timing("negotiate", phase.latencies[NEGOTIATE])
        run.named["tunnels"] = (float(phase.tunnels), "count",
                                phase.attempted[NEGOTIATE])
    else:
        run.named["max_rate_rps"] = (await max_rate(run, driver, setup),
                                     "1/s", len(RATE_LADDER))
    run.window(t0, cpu)

    if graph.version != start_version:
        run.problems.append(
            f"graph left at version {graph.version}, started at "
            f"{start_version}")
    await setup.stop()
    samples = phase.samples
    run.problems.extend(check_answers(graph, samples, driver.down_at))
    run.problems.extend(check_negotiations(phase.negotiated))
    run.named["answers_checked"] = (
        float(min(len(samples), MAX_CHECKED_ANSWERS)), "count", len(samples))

    batches = after["batches"] - before["batches"]
    run.layers.update({
        "service.batches": batches,
        "service.batch_size_mean": (
            (after["batched"] - before["batched"]) / batches if batches
            else 0.0),
        "service.coalesced": after["coalesced"] - before["coalesced"],
        "service.shed": after["shed"] - before["shed"],
        "bench.late_p99_ms": stats.percentile(phase.lateness, 0.99) * 1e3,
    })


async def max_rate(run: Run, driver, setup) -> float:
    """Highest ladder rate whose p99 meets :data:`P99_LIMIT_S` with no
    failures, no sheds and a drained backlog."""
    from driver import LOOKUP, schedule

    best = 0.0
    for rate in RATE_LADDER:
        rng = random.Random(f"{run.seed}:rate:{rate}")
        requests = schedule(rng, rate, RATE_STEP_SECONDS, setup.population,
                            ZIPF_S)
        phase = await driver.run(requests)
        latencies = phase.latencies[LOOKUP]
        p99 = stats.percentile(latencies, 0.99) if latencies else float("inf")
        late = stats.percentile(phase.lateness, 0.99)
        drained = phase.makespan <= requests[-1].due + P99_LIMIT_S
        if latencies:
            tag = f"rate_{int(rate)}"
            run.named[f"{tag}_p50_ms"] = (
                stats.median(latencies) * 1e3, "ms", len(latencies))
            run.named[f"{tag}_p99_ms"] = (p99 * 1e3, "ms", len(latencies))
        if (phase.total_failed or p99 > P99_LIMIT_S or late > P99_LIMIT_S
                or not drained):
            break
        best = rate
    return best


# ----------------------------------------------------------------------
# traced-run analysis
# ----------------------------------------------------------------------
def layer_metrics(run: Run) -> None:
    rec = run.recorder
    out = run.layers

    def calls_seconds(span: str, prefix: str) -> None:
        calls, seconds, _ = rec.totals(span)
        out[f"{prefix}_calls"] = float(calls)
        out[f"{prefix}_s"] = seconds

    out["topology.generate_s"] = rec.totals("topology.generate")[1]
    calls, seconds, _ = rec.totals("topology.snapshot")
    out["topology.snapshot_builds"] = float(calls)
    out["topology.snapshot_s"] = seconds
    out["topology.publish_s"] = rec.totals("topology.publish")[1]
    out["topology.delta_s"] = rec.totals("topology.delta")[1]
    calls, seconds, dests = rec.totals("bgp.settle")
    out["bgp.settle_calls"] = float(calls)
    out["bgp.settle_dests"] = dests
    out["bgp.settle_s"] = seconds
    calls_seconds("bgp.recompute", "bgp.recompute")
    calls, seconds, messages = rec.totals("bgp.engine")
    out["bgp.engine_runs"] = float(calls)
    out["bgp.engine_messages"] = messages
    out["bgp.engine_s"] = seconds
    calls_seconds("session.compute_many", "session.compute_many")
    out["session.pool_fanout_s"] = sum(
        s.end - s.start for s in rec.spans
        if s.name == "session.compute_many" and s.value)
    hits = sum(s.hits for s in run.session_stats)
    misses = sum(s.misses for s in run.session_stats)
    out["session.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out["session.tables_computed"] = float(
        sum(s.tables_computed for s in run.session_stats))
    out["session.tables_derived"] = float(
        sum(s.tables_derived for s in run.session_stats))
    out["session.coalesced"] = float(
        sum(s.coalesced for s in run.session_stats))
    out["session.mutate_s"] = rec.totals("session.mutate")[1]
    calls_seconds("miro.attempt", "miro.attempt")
    out["miro.traffic_s"] = rec.totals("miro.traffic")[1]
    calls, seconds, established = rec.totals("miro.establish")
    out["miro.establish_calls"] = float(calls)
    out["miro.establish_s"] = seconds
    out["miro.tunnel_ratio"] = established / calls if calls else 0.0
    calls_seconds("sourcerouting.reachable", "sourcerouting.reachable")
    for section in list(tracing.REPORT_SECTIONS.values()) + ["churn_sweep"]:
        out[f"experiments.{section}_s"] = rec.totals(
            f"experiments.{section}")[1]
    out["bench.attributed_ratio"] = rec.attributed(run.windows)


WORKLOADS = ("paper-datasets", "paper-internet10k", "service-read",
             "service-churn")


def execute(workload: str, seed: int, seconds: float, trace: bool,
            spans_out: Optional[str] = None) -> Dict[str, object]:
    run = Run(workload, seed, seconds, trace)
    if workload in PAPER:
        paper_workload(run)
    else:
        asyncio.run(service_workload(run, churn=workload == "service-churn"))
    if workload in PAPER:
        run.problems.extend(check_digests(workload, run.digests,
                                          load_digests()))
    if trace:
        layer_metrics(run)
        if spans_out:
            run.recorder.dump(spans_out)
    return run.result()


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", default=None,
                        help="write the traced run's spans to this file")
    args = parser.parse_args(argv)
    # run.py asks for every thread's stack before it kills a late run
    faulthandler.register(signal.SIGUSR1, all_threads=True)
    result = execute(args.workload, args.seed, args.seconds,
                     bool(args.trace), args.spans_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
