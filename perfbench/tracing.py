"""Spans recorded by the benchmark around calls into the program's layers.

The traced run installs wrappers from this file around public functions
of each layer package under ``src/repro`` (at the names their callers
resolve, e.g. ``repro.experiments.avoidance.miro_attempt``); the program
itself is not edited.  Each call becomes one span: name, start, end,
the enclosing span on the same thread or asyncio task, and a request id
for service operations.  Spans stay in memory and are written out when the run ends.

Per-route functions (``ASGraph.relationship``, ``may_export``,
``RoutingTable.best``) run 10^5-10^6 times per report and are left
unwrapped, so the recorder's own cost stays a small share of the run.
"""

from __future__ import annotations

import contextvars
import importlib
import json
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

#: Request id of the service operation the current task is serving.
REQUEST_ID: contextvars.ContextVar[Optional[int]] = contextvars.ContextVar(
    "perfbench_request_id", default=None
)

#: Span-name prefixes that count as program layers for attribution.
#: ``experiments.*`` spans enclose whole report sections and ``request.*``
#: spans enclose whole service operations; counting them would attribute
#: every second trivially, so attribution asks what lies below them.
LAYER_PREFIXES = ("topology.", "bgp.", "session.", "miro.", "sourcerouting.")

#: ``full_report`` section name for each experiment function it calls.
REPORT_SECTIONS = {
    "summarize": "table_5_1_topology",
    "degree_distribution": "fig_5_1_degree",
    "run_diversity": "fig_5_2_diversity",
    "run_success_rates": "table_5_2_success_rates",
    "run_negotiation_state": "table_5_3_negotiation_state",
    "run_incremental_deployment": "fig_5_4_deployment",
    "run_traffic_control": "fig_5_6_traffic",
    "run_failure_sweep": "failure_sweep",
    "run_counterexamples": "fig_7_counterexamples",
    "run_guideline_sweep": "guideline_sweep",
    "run_overhead_comparison": "overhead_comparison",
}


class Span:
    __slots__ = ("index", "name", "start", "end", "parent", "request", "thread",
                 "value")

    def __init__(self, index: int, name: str, start: float,
                 parent: Optional[int], request: Optional[int],
                 thread: int) -> None:
        self.index = index
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request
        self.thread = thread
        #: a per-call count some wrappers attach (messages, destinations)
        self.value = 0.0


class Recorder:
    """In-memory span store; one per traced run.

    The enclosing span lives in a context variable, so spans nest per
    thread and per asyncio task: concurrent requests on one event loop
    never become each other's parents.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._current: contextvars.ContextVar[Optional[int]] = (
            contextvars.ContextVar("perfbench_span", default=None))

    def open(self, name: str) -> Tuple[Span, contextvars.Token]:
        with self._lock:
            span = Span(len(self.spans), name, time.perf_counter(),
                        self._current.get(), REQUEST_ID.get(),
                        threading.get_ident())
            self.spans.append(span)
        return span, self._current.set(span.index)

    def close(self, span: Span, token: contextvars.Token) -> None:
        span.end = time.perf_counter()
        self._current.reset(token)

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        span, token = self.open(name)
        try:
            yield span
        finally:
            self.close(span, token)

    def wrap(self, fn: Callable, name: str,
             value: Optional[Callable] = None) -> Callable:
        """``fn`` recorded as span ``name``; ``value(args, kwargs, result)``
        sets the span's count."""
        recorder = self

        def wrapper(*args, **kwargs):
            span, token = recorder.open(name)
            try:
                result = fn(*args, **kwargs)
                if value is not None:
                    span.value = value(args, kwargs, result)
                return result
            finally:
                recorder.close(span, token)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------
    def self_times(self) -> List[float]:
        """Each span's duration minus the part its child spans cover."""
        children: Dict[int, List[Tuple[float, float]]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(
                    (span.start, span.end)
                )
        return [
            (span.end - span.start)
            - covered(children.get(span.index, ()), span.start, span.end)
            for span in self.spans
        ]

    def totals(self, name: str) -> Tuple[int, float, float]:
        """(calls, seconds, summed value) over spans called ``name``."""
        calls, seconds, value = 0, 0.0, 0.0
        for span in self.spans:
            if span.name == name:
                calls += 1
                seconds += span.end - span.start
                value += span.value
        return calls, seconds, value

    def attributed(self, windows: Iterable[Tuple[float, float]]) -> float:
        """Share of the ``windows`` wall time inside any layer span.

        Spans on concurrent threads overlap, so this is the measure of
        the union of layer-span intervals, which never exceeds the wall
        time it is divided by.
        """
        windows = list(windows)
        wall = sum(end - start for start, end in windows)
        if wall <= 0:
            return 0.0
        intervals = [
            (span.start, span.end) for span in self.spans
            if span.name.startswith(LAYER_PREFIXES)
        ]
        inside = sum(covered(intervals, start, end) for start, end in windows)
        return inside / wall

    def dump(self, path: str) -> None:
        selfs = self.self_times()
        rows = [
            [s.name, s.start, s.end, s.parent, s.request, s.thread,
             round(selfs[s.index], 9)]
            for s in self.spans
        ]
        with open(path, "w") as handle:
            json.dump({"columns": ["name", "start", "end", "parent",
                                   "request", "thread", "self"],
                       "spans": rows}, handle, separators=(",", ":"))


def covered(intervals: Iterable[Tuple[float, float]], lo: float,
            hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi
    )
    total = 0.0
    cur_start = cur_end = None
    for a, b in clipped:
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class NullRecorder:
    """The untraced run's recorder: spans cost nothing."""

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        yield None


# ----------------------------------------------------------------------
# installation
# ----------------------------------------------------------------------
def _count_destinations(args, kwargs, result) -> float:
    return float(len(result))


def _count_result(args, kwargs, result) -> float:
    return float(result)


def _established(args, kwargs, result) -> float:
    return 0.0 if result is None else 1.0


def install(recorder: Recorder) -> None:
    """Wrap each layer's public calls where their callers resolve them."""

    def patch(module: str, attr: str, name: str, value=None) -> None:
        owner = importlib.import_module(module)
        setattr(owner, attr, recorder.wrap(getattr(owner, attr), name, value))

    def patch_method(cls, attr: str, name: str, value=None) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            setattr(cls, attr,
                    classmethod(recorder.wrap(raw.__func__, name, value)))
        else:
            setattr(cls, attr, recorder.wrap(raw, name, value))

    # topology
    for module in ("repro.topology.generator", "repro.topology",
                   "repro.experiments.churn", "repro.experiments.convergence",
                   "repro.experiments.datasets"):
        patch(module, "generate_topology", "topology.generate")
    from repro.topology.delta import AppliedDelta, TopologyDelta
    from repro.topology.snapshot import SharedSnapshot, TopologySnapshot

    patch_method(TopologySnapshot, "build", "topology.snapshot")
    patch_method(SharedSnapshot, "publish", "topology.publish")
    patch_method(TopologyDelta, "apply", "topology.delta")
    patch_method(AppliedDelta, "revert", "topology.delta")

    # bgp
    patch("repro.bgp.kernels", "settle", "bgp.settle",
          lambda args, kwargs, result: 1.0)
    patch("repro.bgp.kernels", "settle_many", "bgp.settle", _count_destinations)
    patch("repro.session.core", "recompute_routes", "bgp.recompute")
    from repro.bgp.engine import EventDrivenBGP

    patch_method(EventDrivenBGP, "run", "bgp.engine", _count_result)

    # session
    from repro.session.core import SessionCore

    compute_many = SessionCore.compute_many

    def traced_compute_many(self, *args, **kwargs):
        before = self.stats.parallel_fanouts
        span, token = recorder.open("session.compute_many")
        try:
            return compute_many(self, *args, **kwargs)
        finally:
            recorder.close(span, token)
            span.value = float(self.stats.parallel_fanouts > before)

    SessionCore.compute_many = traced_compute_many
    patch_method(SessionCore, "mutate", "session.mutate")

    # miro and source routing
    for module in ("repro.experiments.avoidance", "repro.experiments.overhead",
                   "repro.experiments.deployment"):
        patch(module, "miro_attempt", "miro.attempt")
        if module != "repro.experiments.deployment":
            patch(module, "single_path_attempt", "miro.attempt")
    patch("repro.experiments.traffic", "best_control_for_stub", "miro.traffic")
    from repro.miro.runtime import MiroRuntime

    patch_method(MiroRuntime, "establish", "miro.establish", _established)
    patch("repro.experiments.avoidance", "reachable_set_avoiding",
          "sourcerouting.reachable")

    # the experiment harness: each full_report section
    for attr, section in REPORT_SECTIONS.items():
        patch("repro.experiments.runner", attr, f"experiments.{section}")


def session_stats_collector() -> List[object]:
    """Keep every SessionCore's live stats object created from now on."""
    from repro.session.core import SessionCore

    collected: List[object] = []
    init = SessionCore.__init__

    def traced_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        collected.append(self.stats)

    SessionCore.__init__ = traced_init
    return collected
