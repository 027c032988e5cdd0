"""Convergence model and simulator for MIRO (Ch. 7): guideline modes,
activation sequences, oscillation detection, and the counterexamples.
One entry point, :meth:`MiroConvergenceSystem.run`: classic fair rounds
under synchronous delays, the discrete-event engine
(:mod:`repro.convergence.eventsim`) under any delay model that separates
event timestamps — propagation delays, MRAI timers, jitter — plus
:func:`run_churn` for timestamped topology churn."""

from .eventsim import ChurnResult, run_churn
from .examples import (
    bad_gadget_bgp_system,
    fig_7_1_graph,
    fig_7_1_system,
    fig_7_2_graph,
    fig_7_2_system,
)
from .model import (
    ExplicitRanker,
    GaoRexfordRanker,
    GuidelineMode,
    PartialOrder,
    Ranker,
    Selection,
    TunnelDemand,
    path_class_rank,
    route_class_rank,
)
from .simulator import (
    ConvergenceResult,
    MiroConvergenceSystem,
    proof_schedule,
    proof_schedule_guideline_b,
    proof_schedule_guideline_c,
    proof_schedule_strict,
)

__all__ = [
    "GuidelineMode",
    "Selection",
    "TunnelDemand",
    "Ranker",
    "ExplicitRanker",
    "GaoRexfordRanker",
    "PartialOrder",
    "route_class_rank",
    "path_class_rank",
    "MiroConvergenceSystem",
    "ConvergenceResult",
    "proof_schedule",
    "proof_schedule_guideline_b",
    "proof_schedule_guideline_c",
    "proof_schedule_strict",
    "fig_7_1_graph",
    "fig_7_1_system",
    "fig_7_2_graph",
    "fig_7_2_system",
    "bad_gadget_bgp_system",
    "ChurnResult",
    "run_churn",
]
