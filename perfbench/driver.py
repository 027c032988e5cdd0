"""The benchmark's open-loop driver for the in-process MIRO query service.

Requests arrive on a seeded Poisson schedule whether or not earlier ones
have finished.  Each request is timed from its *due* time, not from when
its task happened to start, so a stall on the event loop shows up in the
latency of every request queued behind it; how late the generator itself
issued each request is recorded separately.

Topology churn is a stack of link failures: a flap either fails a link
that is currently up, or repairs the most recent failure.  Flaps run one
at a time in schedule order, so the failures are always reverted in LIFO
order and the graph returns to the version it started from.

``repro.service.workload.run_workload`` is not used: it starts each
request's clock when its task starts, which hides stalls.  Its churn
also crashes ``repro loadgen --churn-every N`` (seen on gao-2005 at 20k
requests) because it reverts ``AppliedDelta``s in random order ("graph
has been mutated since it was applied") and can fail a link that is
already down ("AS ... is not adjacent to AS ...").
"""

from __future__ import annotations

import asyncio
import random
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.topology.delta import TopologyDelta

from tracing import REQUEST_ID, NullRecorder

LOOKUP, CHURN, NEGOTIATE = "lookup", "churn", "negotiate"


@dataclass(frozen=True)
class Request:
    """One scheduled operation, ``due`` seconds after the phase starts."""

    due: float
    kind: str
    destination: int = 0
    requester: int = 0
    responder: int = 0


def zipf_cdf(n: int, s: float) -> List[float]:
    weights = [(rank + 1) ** -s for rank in range(n)]
    total = sum(weights)
    cdf, acc = [], 0.0
    for w in weights:
        acc += w / total
        cdf.append(acc)
    cdf[-1] = 1.0
    return cdf


def schedule(
    rng: random.Random,
    rate: float,
    seconds: float,
    population: Sequence[int],
    zipf_s: float = 1.1,
    churn_every: Optional[int] = None,
    negotiate_every: Optional[int] = None,
    negotiations: Sequence[Tuple[int, int, int]] = (),
) -> List[Request]:
    """A seeded open-loop schedule of ``rate`` arrivals/s for ``seconds``.

    Destinations follow Zipf(``zipf_s``) over ``population`` in rank
    order.  Every ``negotiate_every``-th arrival is a negotiation drawn
    from ``negotiations`` (requester, responder, destination) instead of
    a lookup; every ``churn_every``-th arrival also brings one flap.
    """
    cdf = zipf_cdf(len(population), zipf_s)
    out: List[Request] = []
    t = 0.0
    i = 0
    while True:
        t += rng.expovariate(rate)
        if t >= seconds:
            return out
        i += 1
        if negotiate_every and i % negotiate_every == 0 and negotiations:
            requester, responder, destination = rng.choice(negotiations)
            out.append(Request(t, NEGOTIATE, destination, requester, responder))
        else:
            destination = population[bisect_left(cdf, rng.random())]
            out.append(Request(t, LOOKUP, destination))
        if churn_every and i % churn_every == 0:
            out.append(Request(t, CHURN))


@dataclass
class PhaseResult:
    """What one run of a schedule measured."""

    latencies: Dict[str, List[float]] = field(
        default_factory=lambda: {LOOKUP: [], CHURN: [], NEGOTIATE: []}
    )
    attempted: Dict[str, int] = field(
        default_factory=lambda: {LOOKUP: 0, CHURN: 0, NEGOTIATE: 0}
    )
    failed: Dict[str, int] = field(
        default_factory=lambda: {LOOKUP: 0, CHURN: 0, NEGOTIATE: 0}
    )
    errors: List[str] = field(default_factory=list)
    lateness: List[float] = field(default_factory=list)
    makespan: float = 0.0
    tunnels: int = 0
    #: (graph version, destination, answered table) for sampled lookups
    samples: List[Tuple[int, int, object]] = field(default_factory=list)
    #: negotiation outcomes: (request, EstablishedTunnel or None)
    negotiated: List[Tuple[Request, object]] = field(default_factory=list)

    @property
    def total_attempted(self) -> int:
        return sum(self.attempted.values())

    @property
    def total_failed(self) -> int:
        return sum(self.failed.values())


class OpenLoopDriver:
    """Drives one :class:`~repro.service.MiroService` on the running loop.

    ``churn_rng`` decides each flap when it runs (fail a random up link,
    or repair the newest failure, at most ``max_down`` failures open);
    since flaps are serialized, the decisions depend only on the seed.
    """

    def __init__(self, service, churn_rng: random.Random, max_down: int = 4,
                 sample_every: int = 50, recorder=None) -> None:
        self.service = service
        self.graph = service.core.graph
        self.rng = churn_rng
        self.max_down = max_down
        self.sample_every = sample_every
        self.recorder = recorder or NullRecorder()
        self.start_version = self.graph.version
        self._links = sorted((a, b) for a, b, _rel in self.graph.iter_links())
        if max_down >= len(self._links):
            raise ValueError(f"max_down={max_down} leaves no link to fail "
                             f"among {len(self._links)}")
        #: open failures, oldest first: (AppliedDelta, (a, b))
        self.down: List[Tuple[object, Tuple[int, int]]] = []
        #: graph version -> the links failed in that state
        self.down_at: Dict[int, Tuple[Tuple[int, int], ...]] = {
            self.start_version: ()
        }
        self._churn_lock = asyncio.Lock()
        self._churn_active = 0
        self._churn_epoch = 0
        self._lookups = 0

    # ------------------------------------------------------------------
    # one operation each
    # ------------------------------------------------------------------
    async def _lookup(self, request: Request, result: PhaseResult) -> None:
        epoch, active = self._churn_epoch, self._churn_active
        version = self.graph.version
        table = await self.service.lookup(request.destination)
        self._lookups += 1
        if (active == 0 and epoch == self._churn_epoch
                and self._lookups % self.sample_every == 0):
            # no flap ran while this lookup was in flight, so the answer
            # belongs to ``version``
            result.samples.append((version, request.destination, table))

    async def _negotiate(self, request: Request, result: PhaseResult) -> None:
        record = await self.service.negotiate(
            request.requester, request.responder, request.destination
        )
        result.negotiated.append((request, record))
        if record is not None:
            result.tunnels += 1

    async def _churn(self, request: Request, result: PhaseResult) -> None:
        async with self._churn_lock:
            self._churn_active += 1
            self._churn_epoch += 1
            try:
                await self._flap()
            finally:
                self._churn_active -= 1

    async def _flap(self) -> None:
        if self.down and (len(self.down) >= self.max_down
                          or self.rng.random() < 0.5):
            applied, _link = self.down[-1]
            await self.service.apply_churn(lambda graph: applied.revert())
            self.down.pop()
        else:
            failed = {link for _applied, link in self.down}
            while True:
                link = self._links[self.rng.randrange(len(self._links))]
                if link not in failed:
                    break
            applied = await self.service.apply_churn(
                TopologyDelta.link_down(*link).apply
            )
            self.down.append((applied, link))
        self.down_at[self.graph.version] = tuple(
            link for _applied, link in self.down
        )

    async def unwind(self) -> None:
        """Repair every open failure, newest first."""
        async with self._churn_lock:
            while self.down:
                applied, _link = self.down[-1]
                await self.service.apply_churn(lambda graph: applied.revert())
                self.down.pop()

    # ------------------------------------------------------------------
    # the open loop
    # ------------------------------------------------------------------
    async def run(self, requests: Sequence[Request]) -> PhaseResult:
        result = PhaseResult()
        loop = asyncio.get_running_loop()
        handlers = {LOOKUP: self._lookup, CHURN: self._churn,
                    NEGOTIATE: self._negotiate}
        done_at: List[float] = []

        async def issue(rid: int, request: Request, due: float) -> None:
            REQUEST_ID.set(rid)
            result.attempted[request.kind] += 1
            try:
                with self.recorder.span(f"request.{request.kind}"):
                    await handlers[request.kind](request, result)
            except ReproError as exc:
                result.failed[request.kind] += 1
                if len(result.errors) < 10:
                    result.errors.append(f"{request.kind}: {exc!r}")
                return
            finished = loop.time()
            result.latencies[request.kind].append(finished - due)
            done_at.append(finished)

        tasks = []
        start = loop.time()
        for rid, request in enumerate(requests):
            due = start + request.due
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            result.lateness.append(max(0.0, loop.time() - due))
            tasks.append(loop.create_task(issue(rid, request, due)))
        await asyncio.gather(*tasks)
        result.makespan = (max(done_at) if done_at else loop.time()) - start
        return result
