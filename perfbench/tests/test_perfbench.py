"""Tests of the benchmark's own driver, statistics and correctness gates.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import asyncio
import os
import random
import sys
import time
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from driver import CHURN, LOOKUP, OpenLoopDriver, schedule  # noqa: E402
from repro.bgp.routing import RoutingTable, compute_routes  # noqa: E402
from repro.topology.delta import TopologyDelta  # noqa: E402
from repro.topology.generator import TINY, generate_topology  # noqa: E402


class FakeService:
    """Applies churn inline and checks every flap against a shadow stack."""

    def __init__(self, graph) -> None:
        self.core = SimpleNamespace(graph=graph)
        self.shadow = []
        self.flaps = 0

    def links(self):
        return {(a, b) for a, b, _rel in self.core.graph.iter_links()}

    async def lookup(self, destination):
        await asyncio.sleep(0)
        return destination

    async def apply_churn(self, fn):
        before = self.links()
        result = fn(self.core.graph)
        after = self.links()
        self.flaps += 1
        removed, added = before - after, after - before
        if removed:
            # a failure takes down exactly one link that was up
            assert len(removed) == 1 and not added
            self.shadow.append(removed.pop())
        else:
            # a repair restores exactly the newest failure
            assert added == {self.shadow.pop()}
        return result


def test_driver_flaps_only_up_links_and_reverts_lifo():
    graph = generate_topology(TINY, seed=3)
    start = graph.version
    service = FakeService(graph)
    driver = OpenLoopDriver(service, random.Random(7), max_down=4)
    requests = schedule(random.Random(1), rate=4000.0, seconds=0.1,
                        population=graph.ases[:8], churn_every=1)

    async def go():
        phase = await driver.run(requests)
        await driver.unwind()
        return phase

    phase = asyncio.run(go())
    assert phase.failed[CHURN] == 0 and phase.attempted[CHURN] > 50
    assert phase.attempted[LOOKUP] == len(phase.latencies[LOOKUP])
    assert service.flaps >= phase.attempted[CHURN]
    assert service.shadow == [] and driver.down == []
    assert graph.version == start
    # every recorded state lists the failures open in it
    assert set(driver.down_at[start]) == set()


class AlwaysFail:
    """Never chooses a repair while fewer than ``max_down`` links are down."""

    def __init__(self, seed: int) -> None:
        self.randrange = random.Random(seed).randrange

    def random(self) -> float:
        return 0.99


def test_down_links_are_never_failed_again():
    graph = generate_topology(TINY, seed=4)
    service = FakeService(graph)
    n_links = len(service.links())
    driver = OpenLoopDriver(service, AlwaysFail(2), max_down=n_links - 1)

    async def go():
        for _ in range(n_links + 3):
            await driver._churn(None, None)

    asyncio.run(go())
    # at max_down open failures the next flap repairs the newest one, so
    # the flaps end alternating between n_links - 2 and n_links - 1 down
    failed = [link for _applied, link in driver.down]
    assert len(failed) == len(set(failed)) == n_links - 1
    assert service.flaps == n_links + 3


def test_driver_refuses_more_failures_than_links():
    graph = generate_topology(TINY, seed=4)
    with pytest.raises(ValueError):
        OpenLoopDriver(FakeService(graph), random.Random(0), max_down=10_000)


@pytest.mark.parametrize("n", list(range(1, 60)) + [99, 100, 109, 110, 999,
                                                     1000, 1099, 1100, 20000])
def test_tail_keeps_ten_samples_beyond(n):
    samples = random.Random(n).sample(range(10 * n), n)
    found = stats.tail(samples)
    if n < 2 * stats.MIN_BEYOND:
        assert found is None
        return
    q, value = found
    assert sum(1 for s in samples if s > value) >= stats.MIN_BEYOND
    higher = [h for h in stats.TAIL_LADDER if h > q]
    if higher:
        assert stats.beyond(n, higher[0]) < stats.MIN_BEYOND
    assert value == sorted(samples)[-1 - stats.beyond(n, q)]


def test_percentile_is_nearest_rank():
    assert stats.percentile([3, 1, 2], 0.5) == 2
    assert stats.percentile(list(range(1, 101)), 0.99) == 99
    assert stats.percentile([5.0], 0.99) == 5.0


def test_corrupted_report_digest_fails_the_run():
    recorded = {"paper-datasets": {"0": "a" * 64, "1000000": "b" * 64}}
    assert workloads.check_digests(
        "paper-datasets", [(0, "a" * 64), (1_000_000, "b" * 64)], recorded
    ) == []
    problems = workloads.check_digests(
        "paper-datasets", [(0, "a" * 64), (1_000_000, "c" * 64)], recorded)
    assert len(problems) == 1
    run = workloads.Run("paper-datasets", 0, 1.0, trace=False)
    run.setup_s, run.eval_s, run.ops_s = [1.0], [1.0], [1.0]
    run.timed_cpu_s, run.timed_ops = 1.0, 1
    run.problems.extend(problems)
    assert run.result()["correct"] is False


def test_digests_are_recorded_for_every_paper_workload():
    recorded = workloads.load_digests()
    for workload in workloads.PAPER:
        assert str(workloads.SAMPLE_SEED) in recorded[workload]


def test_wrong_lookup_answer_fails_the_run():
    graph = generate_topology(TINY, seed=5)
    destination = graph.ases[0]
    table = compute_routes(graph, destination)
    down_at = {graph.version: ()}
    assert workloads.check_answers(
        graph, [(graph.version, destination, table)], down_at) == []

    routes = {a: table.best(a) for a in graph.ases if table.best(a)}
    victim = next(a for a in routes if a != destination)
    del routes[victim]
    wrong = RoutingTable(graph, destination, routes)
    assert workloads.check_answers(
        graph, [(graph.version, destination, wrong)], down_at) != []


def test_answers_are_checked_on_their_own_graph_version():
    graph = generate_topology(TINY, seed=6)
    destination = graph.ases[0]
    start = graph.version
    before = compute_routes(graph, destination)
    # fail a link on some AS's path so the table changes
    path = next(before.best(a).path for a in graph.ases
                if before.best(a) and len(before.best(a).path) >= 2)
    link = tuple(sorted(path[:2]))
    applied = TopologyDelta.link_down(*link).apply(graph)
    during = compute_routes(graph, destination)
    version = graph.version
    applied.revert()
    down_at = {start: (), version: (link,)}
    assert workloads.check_answers(
        graph, [(version, destination, during),
                (start, destination, before)], down_at) == []
    assert workloads.check_answers(
        graph, [(version, destination, before)], down_at) != []
    assert graph.version == start


def test_concurrent_tasks_do_not_become_each_others_parents():
    rec = tracing.Recorder()

    async def request(i):
        with rec.span(f"request.{i}"):
            await asyncio.sleep(0.01)
            with rec.span("bgp.inner"):
                await asyncio.sleep(0)

    async def go():
        await asyncio.gather(request(0), request(1))

    asyncio.run(go())
    by_name = {s.name: s for s in rec.spans}
    assert by_name["request.0"].parent is None
    assert by_name["request.1"].parent is None
    inner = [s for s in rec.spans if s.name == "bgp.inner"]
    assert sorted(rec.spans[s.parent].name for s in inner) == [
        "request.0", "request.1"]


def test_self_time_subtracts_child_spans():
    rec = tracing.Recorder()
    with rec.span("outer"):
        time.sleep(0.01)
        with rec.span("inner"):
            time.sleep(0.01)
    outer, inner = rec.spans
    selfs = rec.self_times()
    assert selfs[1] == pytest.approx(inner.end - inner.start)
    assert selfs[0] == pytest.approx(
        (outer.end - outer.start) - (inner.end - inner.start))
    assert rec.attributed([(outer.start, outer.end)]) == 0.0
