"""Seeded synthetic traffic replay for the MIRO query service.

The serving-plane evaluation needs a workload that looks like
interdomain traffic actually looks: a few destinations absorb most of
the queries (Zipf popularity), requests arrive independently of how
fast the service answers (open-loop Poisson arrivals, so overload shows
up as shed requests instead of silently slowing the generator), and the
topology keeps moving underneath (optional churn through the delta
API's writer gate).  Everything is seeded, so a workload run is a
reproducible experiment, not a load test that happened once.
"""

from __future__ import annotations

import asyncio
import json
import random
import time
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ServiceError, ServiceOverloadError
from ..obs import get_logger
from ..topology.delta import TopologyDelta
from .daemon import MiroService

_LOG = get_logger("service.workload")


class ZipfSampler:
    """Rank-based Zipf popularity over a fixed destination population.

    Destination at popularity rank ``k`` (1-based) is drawn with weight
    ``k**-s``; sampling is an O(log n) bisect over the precomputed CDF.
    ``s`` around 1 matches the classic traffic-concentration findings
    (a handful of prefixes dominate interdomain traffic).
    """

    def __init__(self, population: Sequence[int], s: float = 1.1) -> None:
        if not population:
            raise ServiceError("workload needs a non-empty destination set")
        if s < 0:
            raise ServiceError(f"zipf exponent must be >= 0, got {s}")
        self.population: Tuple[int, ...] = tuple(population)
        self.s = s
        weights = [(rank + 1) ** -s for rank in range(len(self.population))]
        total = sum(weights)
        cumulative = 0.0
        self._cdf: List[float] = []
        for w in weights:
            cumulative += w / total
            self._cdf.append(cumulative)
        self._cdf[-1] = 1.0

    def sample(self, rng: random.Random) -> int:
        return self.population[bisect_left(self._cdf, rng.random())]


@dataclass(frozen=True)
class WorkloadConfig:
    """One seeded workload: what to ask for, how fast, for how long."""

    destinations: Tuple[int, ...]
    requests: int = 1000
    rate: float = 5000.0          # open-loop arrivals per second; 0 = AFAP
    zipf_s: float = 1.1
    seed: int = 0
    churn_every: Optional[int] = None   # flap a link every N requests
    negotiate_every: Optional[int] = None  # a negotiation every N requests

    def __post_init__(self) -> None:
        if self.requests < 1:
            raise ServiceError(f"requests must be >= 1, got {self.requests}")
        if self.rate < 0:
            raise ServiceError(f"rate must be >= 0, got {self.rate}")


@dataclass
class WorkloadResult:
    """What came back: outcome counts and the client-side latency view."""

    sent: int = 0
    ok: int = 0
    shed: int = 0
    errors: int = 0
    negotiations: int = 0
    tunnels: int = 0
    churn_events: int = 0
    duration_seconds: float = 0.0
    latencies: List[float] = field(default_factory=list)

    @property
    def qps(self) -> float:
        return self.ok / self.duration_seconds if self.duration_seconds else 0.0

    def latency_quantile(self, q: float) -> float:
        """Exact client-observed latency quantile (nearest-rank)."""
        if not self.latencies:
            return 0.0
        ordered = sorted(self.latencies)
        index = min(len(ordered) - 1, int(q * len(ordered)))
        return ordered[index]

    def to_dict(self) -> Dict[str, float]:
        return {
            "sent": self.sent,
            "ok": self.ok,
            "shed": self.shed,
            "errors": self.errors,
            "negotiations": self.negotiations,
            "tunnels": self.tunnels,
            "churn_events": self.churn_events,
            "duration_seconds": self.duration_seconds,
            "qps": self.qps,
            "latency_p50_ms": self.latency_quantile(0.50) * 1000.0,
            "latency_p99_ms": self.latency_quantile(0.99) * 1000.0,
        }

    def render(self) -> str:
        d = self.to_dict()
        return "\n".join([
            "workload result:",
            f"  requests:   {d['sent']:.0f} sent, {d['ok']:.0f} ok,"
            f" {d['shed']:.0f} shed, {d['errors']:.0f} errors",
            f"  throughput: {d['qps']:.0f} lookups/sec over"
            f" {d['duration_seconds']:.3f} s",
            f"  latency:    p50 {d['latency_p50_ms']:.3f} ms,"
            f" p99 {d['latency_p99_ms']:.3f} ms",
            f"  miro:       {d['negotiations']:.0f} negotiations,"
            f" {d['tunnels']:.0f} tunnels",
            f"  churn:      {d['churn_events']:.0f} topology events",
        ])


async def run_workload(
    service: MiroService, config: WorkloadConfig
) -> WorkloadResult:
    """Drive ``service`` with one seeded open-loop workload, in-process.

    Arrivals are open-loop: each request is scheduled at its Poisson
    arrival time and issued as its own task whether or not earlier
    requests have finished — the generator never slows down to match
    the service, which is what lets overload actually manifest as
    backpressure sheds.  Churn (when enabled) flaps links through
    :meth:`MiroService.apply_churn`: one flap at a time, taking down only
    links that are up and restoring them last-down-first-up (a delta can
    only be reverted on the graph it produced), so the topology always
    recovers; negotiation requests (when enabled) pick a random
    requester AS and negotiate toward its destination's origin through
    the runtime.
    """
    rng = random.Random(config.seed)
    sampler = ZipfSampler(config.destinations, s=config.zipf_s)
    result = WorkloadResult()
    tasks: List[asyncio.Task] = []
    loop = asyncio.get_running_loop()
    graph = service.core.graph
    links = [(a, b) for a, b, _rel in graph.iter_links()]
    # (link, AppliedDelta) per link currently down, oldest first
    flaps: List[Tuple[Tuple[int, int], object]] = []
    churn_lock = asyncio.Lock()

    async def one_lookup(destination: int) -> None:
        start = time.perf_counter()
        try:
            await service.lookup(destination)
        except ServiceOverloadError:
            result.shed += 1
            return
        except ServiceError:
            result.errors += 1
            return
        result.ok += 1
        result.latencies.append(time.perf_counter() - start)

    async def one_negotiation(destination: int) -> None:
        requester = rng.choice(service.core.graph.ases)
        table = None
        try:
            table = await service.lookup(destination)
        except ServiceError:
            result.errors += 1
            return
        route = table.best(requester)
        if route is None or len(route.path) < 2:
            return
        responder = route.path[1]
        try:
            record = await service.negotiate(
                requester, responder, destination
            )
        except ServiceError:
            result.errors += 1
            return
        except Exception:
            # negotiation declines and unreachable responders are part
            # of a churning workload, not generator failures
            return
        result.negotiations += 1
        if record is not None:
            result.tunnels += 1

    async def one_churn() -> None:
        async with churn_lock:
            if flaps and (
                len(flaps) >= min(4, len(links)) or rng.random() < 0.5
            ):
                _link, applied = flaps.pop()
                await service.apply_churn(lambda g: applied.revert())
            else:
                down = {link for link, _applied in flaps}
                link = links[rng.randrange(len(links))]
                while link in down:
                    link = links[rng.randrange(len(links))]
                delta = TopologyDelta.link_down(*link)
                flaps.append((link, await service.apply_churn(delta.apply)))
            result.churn_events += 1

    start = time.perf_counter()
    next_at = loop.time()
    for i in range(config.requests):
        if config.rate:
            next_at += rng.expovariate(config.rate)
            delay = next_at - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
        destination = sampler.sample(rng)
        result.sent += 1
        if config.negotiate_every and (i + 1) % config.negotiate_every == 0:
            tasks.append(loop.create_task(one_negotiation(destination)))
        else:
            tasks.append(loop.create_task(one_lookup(destination)))
        if config.churn_every and (i + 1) % config.churn_every == 0 and links:
            tasks.append(loop.create_task(one_churn()))
    if tasks:
        await asyncio.gather(*tasks)
    # leave the topology the way we found it
    while flaps:
        _link, applied = flaps.pop()
        await service.apply_churn(lambda g: applied.revert())
    result.duration_seconds = time.perf_counter() - start
    _LOG.info("workload_done", **{
        k: v for k, v in result.to_dict().items() if k != "latencies"
    })
    return result


async def run_workload_client(
    host: str, port: int, config: WorkloadConfig
) -> WorkloadResult:
    """Drive a remote ``repro serve`` endpoint over the JSON protocol.

    Lookup-only (churn and negotiation are in-process features — the
    client cannot mutate the server's graph): requests are pipelined on
    one connection with correlation ids, a reader task matches responses
    back to their send times, and arrivals stay open-loop exactly as in
    :func:`run_workload`.
    """
    if config.churn_every or config.negotiate_every:
        raise ServiceError(
            "churn/negotiation workloads only run in-process; "
            "the TCP client is lookup-only"
        )
    rng = random.Random(config.seed)
    sampler = ZipfSampler(config.destinations, s=config.zipf_s)
    result = WorkloadResult()
    reader, writer = await asyncio.open_connection(host, port)
    sent_at: Dict[int, float] = {}

    async def read_loop() -> None:
        # one response per request line, so read exactly that many
        remaining = config.requests
        while remaining:
            line = await reader.readline()
            if not line:
                result.errors += len(sent_at)
                sent_at.clear()
                return
            remaining -= 1
            response = json.loads(line)
            start_time = sent_at.pop(response.get("id"), None)
            if start_time is None:
                result.errors += 1
            elif response.get("ok"):
                result.ok += 1
                result.latencies.append(time.perf_counter() - start_time)
            elif response.get("error") == "overloaded":
                result.shed += 1
            else:
                result.errors += 1

    reads = asyncio.get_running_loop().create_task(read_loop())
    start = time.perf_counter()
    next_at = asyncio.get_running_loop().time()
    try:
        for i in range(config.requests):
            if config.rate:
                next_at += rng.expovariate(config.rate)
                delay = next_at - asyncio.get_running_loop().time()
                if delay > 0:
                    await asyncio.sleep(delay)
            destination = sampler.sample(rng)
            result.sent += 1
            sent_at[i] = time.perf_counter()
            request = {"op": "lookup", "destination": destination, "id": i}
            writer.write(
                (json.dumps(request, separators=(",", ":")) + "\n").encode()
            )
        await writer.drain()
        await reads
    finally:
        reads.cancel()
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass
    result.duration_seconds = time.perf_counter() - start
    return result
