"""Arrival-driven execution of the MIRO convergence model.

This module puts :class:`~repro.convergence.simulator.MiroConvergenceSystem`
on the :mod:`repro.events` scheduler whenever the run's
:class:`~repro.events.timers.DelayModel` can separate event timestamps
(any non-zero delay, jitter, per-link or per-AS override — or injected
topology churn).  :meth:`MiroConvergenceSystem.run` routes such runs
here; under synchronous delays it runs its own fair-round loop instead.

Activations stop being entries in a fair-round for-loop and become
*events*: an AS re-runs route selection because a neighbour's
advertisement arrived (after the link's propagation delay), because a
MIRO responder's offer changed (after a negotiation handshake delay),
or because its own MRAI timer finally allows a pending
re-advertisement.  A changed AS notifies its graph neighbours after the
per-link delay, the requesters of MIRO demands it responds to after the
negotiation delay, and itself (its own selection feeds its own tunnel
via-paths) after its MRAI.  Activation requests coalesce to at most one
pending event per AS (advertisement events carry no routes — an
activation reads the live global state, so one activation at the
earliest pending instant covers every later arrival of the same wave);
the per-AS :class:`~repro.events.timers.MraiTimer` rate-limits firing.
The run is quiescent when the heap drains; an activation budget
(``max_rounds`` worth of fair rounds) guards divergent gadgets, which
never quiesce.

:func:`run_churn` adds timestamped
:class:`~repro.topology.delta.TopologyDelta` injections through the
existing :meth:`~MiroConvergenceSystem.apply_event` transactional path —
the substrate for the flap-storm / rolling-deployment / negotiation-race
scenarios of :mod:`repro.experiments.churn`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from random import Random
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..events.engine import Event, EventScheduler
from ..events.timers import SYNCHRONOUS, DelayModel, MraiTimer
from ..obs import get_logger, get_registry
from ..topology.delta import AppliedDelta, TimedDelta
from .model import Selection
from .simulator import (
    _ACTIVATIONS_TOTAL,
    ConvergenceResult,
    MiroConvergenceSystem,
)

_LOG = get_logger("convergence.events")
_INJECTIONS_TOTAL = get_registry().counter(
    "repro_convergence_churn_injections_total",
    "Topology deltas injected into event-driven convergence runs",
)

#: Event kinds of the convergence driver's vocabulary.
KIND_ACTIVATE = "activate"    # one AS activation
KIND_DELTA = "delta"          # churn: apply one topology delta


@dataclass(frozen=True, slots=True)
class ChurnResult:
    """Outcome of one churn run (:func:`run_churn`).

    ``recovery_times`` maps injection index → simulated seconds from
    that injection until the system next went quiescent (the heap
    drained); injections whose turbulence overlapped the next injection
    share the later quiescence instant, as in real overlapping outages.
    """

    converged: bool
    sim_time: float
    activations: int
    dispatched: int
    injections: int
    final_state: Dict[Tuple[int, int], Optional[Selection]]
    applied: Tuple[AppliedDelta, ...]
    recovery_times: Tuple[Tuple[int, float], ...]

    @property
    def max_recovery(self) -> float:
        return max((t for _, t in self.recovery_times), default=0.0)


class _EventRun:
    """One event-driven convergence execution (driver state)."""

    def __init__(
        self,
        system: MiroConvergenceSystem,
        delays: DelayModel,
        max_rounds: int,
        rng: Optional[Random],
    ) -> None:
        self.system = system
        self.delays = delays
        self.rng = rng
        self.scheduler = EventScheduler()
        self.activations = 0
        #: fair-round-equivalent activation budget
        self.budget = max_rounds * max(1, len(system.graph.ases))
        self.timers: Dict[int, MraiTimer] = {
            asn: MraiTimer(delays.mrai_for(asn))
            for asn in system.graph.ases
        }
        self.pending: Dict[int, float] = {}
        # watchers[responder] = requesters whose tunnel offers it feeds
        self.watchers: Dict[int, List[int]] = {}
        for demand in system.demands:
            requesters = self.watchers.setdefault(demand.responder, [])
            if demand.requester not in requesters:
                requesters.append(demand.requester)
        for requesters in self.watchers.values():
            requesters.sort()
        self.scheduler.register(KIND_ACTIVATE, self._on_activate)

    def request_activation(self, asn: int, arrival: float) -> None:
        """Ask for ``asn`` to re-run selection once news lands at ``arrival``.

        Coalesces onto an existing pending activation when that one is
        no later (it will see this arrival's state anyway — activations
        read live global state; events only carry timing).  A pending
        activation *later* than the new arrival is superseded: the old
        heap entry goes stale and is skipped at dispatch.
        """
        at = self.timers[asn].earliest(arrival)
        pending = self.pending.get(asn)
        if pending is not None and pending <= at:
            return
        self.pending[asn] = at
        self.scheduler.schedule(at, KIND_ACTIVATE, asn)

    def _on_activate(self, event: Event) -> None:
        asn = event.payload
        if self.pending.get(asn) != event.time:
            return  # superseded by an earlier activation request
        del self.pending[asn]
        timer = self.timers[asn]
        earliest = timer.earliest(event.time)
        if earliest > event.time:  # MRAI moved while this event waited
            self.request_activation(asn, earliest)
            return
        timer.fire(event.time)
        self.activations += 1
        _ACTIVATIONS_TOTAL.inc()
        if self.system.activate(asn):
            self._notify_change(asn, event.time)

    def _notify_change(self, asn: int, now: float) -> None:
        """Propagate one AS's state change to everything that reads it."""
        graph = self.system.graph
        for neighbor in sorted(graph.neighbors(asn)):
            delay = self.delays.link_delay_for(asn, neighbor, self.rng)
            self.request_activation(neighbor, now + delay)
        # MIRO requesters see the responder's new offers only after a
        # re-negotiation (§3.3 handshake)
        for requester in self.watchers.get(asn, ()):
            self.request_activation(
                requester, now + self.delays.negotiation_delay
            )
        # the AS's own tunnels ride on its own routes: revisit after MRAI
        self.request_activation(asn, now)

    def seed_initial_activations(self) -> None:
        for asn in self.system.graph.ases:
            self.request_activation(asn, self.delays.initial_offset(self.rng))

    def drain(self, on_event: Optional[Callable[[Event], None]] = None) -> bool:
        """Dispatch until quiescent or the activation budget trips; True
        if drained.  ``on_event`` sees every event after its dispatch."""
        while self.scheduler.pending:
            if self.activations >= self.budget:
                return False
            event = self.scheduler.step()
            if on_event is not None:
                on_event(event)
        return True


def run_asynchronous(
    system: MiroConvergenceSystem,
    delays: DelayModel,
    max_rounds: int,
    rng: Optional[Random],
) -> ConvergenceResult:
    """One arrival-driven convergence run (see the module docstring).

    Called through :meth:`MiroConvergenceSystem.run`, which owns the
    tracing span and outcome metrics.
    """
    run = _EventRun(system, delays, max_rounds, rng)
    with run.scheduler.sim_span("convergence"):
        run.seed_initial_activations()
        quiescent = run.drain()
    ases = max(1, len(system.graph.ases))
    rounds = max(1, math.ceil(run.activations / ases))
    return ConvergenceResult(
        quiescent, rounds, False, dict(system.effective),
        sim_time=run.scheduler.now, activations=run.activations,
    )


def run_churn(
    system: MiroConvergenceSystem,
    injections: Sequence[TimedDelta],
    delays: Optional[DelayModel] = None,
    max_rounds: int = 200,
    rng: Optional[Random] = None,
) -> ChurnResult:
    """Drive a timestamped churn scenario through the event engine.

    The system starts converging undisturbed; each
    :class:`~repro.topology.delta.TimedDelta` fires at its timestamp via
    :meth:`~MiroConvergenceSystem.apply_event` — selections crossing a
    failed link are withdrawn transactionally — and the ASes the delta
    touched are activated, kicking off re-convergence while later
    injections are still pending.  Always arrival-driven (churn
    separates event timestamps even under zero delays).
    """
    delays = delays if delays is not None else SYNCHRONOUS
    ordered = sorted(injections, key=lambda timed: timed.time)
    run = _EventRun(system, delays, max_rounds, rng)
    applied: List[AppliedDelta] = []
    quiesced_after: Dict[int, float] = {}
    in_flight: List[int] = []

    def on_delta(event: Event) -> None:
        index, delta = event.payload
        before = {
            layer_key
            for layer in (system.bgp, system.effective)
            for layer_key, selection in layer.items()
            if selection is not None
        }
        record = system.apply_event(delta)
        applied.append(record)
        _INJECTIONS_TOTAL.inc()
        in_flight.append(index)
        dirty = set()
        for layer in (system.bgp, system.effective):
            for layer_key, selection in layer.items():
                if selection is None and layer_key in before:
                    dirty.add(layer_key[0])
        for a, b in record.changed_links:
            for endpoint in (a, b):
                if endpoint in run.timers:
                    dirty.add(endpoint)
        _LOG.debug("churn_injection", index=index, time=event.time,
                   dirty=len(dirty))
        for asn in sorted(dirty):
            run.request_activation(asn, event.time)

    def on_event(event: Event) -> None:
        if in_flight and not run.pending:
            # no activation is pending anywhere (the heap may still hold
            # future injections or superseded stale events): every
            # in-flight injection has been absorbed
            for index in in_flight:
                quiesced_after[index] = event.time - ordered[index].time
            in_flight.clear()

    run.scheduler.register(KIND_DELTA, on_delta)
    with run.scheduler.sim_span("churn"):
        run.seed_initial_activations()
        for index, timed in enumerate(ordered):
            run.scheduler.schedule(timed.time, KIND_DELTA, (index, timed.delta))
        quiescent = run.drain(on_event)
    recovery = tuple(sorted(quiesced_after.items()))
    return ChurnResult(
        converged=quiescent,
        sim_time=run.scheduler.now,
        activations=run.activations,
        dispatched=run.scheduler.dispatched,
        injections=len(ordered),
        final_state=dict(system.effective),
        applied=tuple(applied),
        recovery_times=recovery,
    )
