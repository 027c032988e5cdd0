"""``repro.events`` — deterministic discrete-event simulation substrate.

A seeded heap of timestamped events with a stable ``(time, seq)``
tie-break, kind-based callback registration, and simulated-clock spans
(:mod:`repro.events.engine`), plus the timing policy the event-driven
convergence simulator runs on — MRAI timers, per-link propagation
delays, jittered activations (:mod:`repro.events.timers`).

The convergence package drives this engine whenever a run's delay model
separates event timestamps
(:meth:`repro.convergence.MiroConvergenceSystem.run` with non-synchronous
``delays``); the churn experiments (:mod:`repro.experiments.churn`)
inject timestamped :class:`~repro.topology.delta.TopologyDelta`
sequences through it.
"""

from .engine import Event, EventScheduler
from .timers import SYNCHRONOUS, DelayModel, MraiTimer

__all__ = [
    "Event",
    "EventScheduler",
    "MraiTimer",
    "DelayModel",
    "SYNCHRONOUS",
]
