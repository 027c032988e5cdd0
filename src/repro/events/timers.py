"""Timing policy for event-driven convergence: MRAI timers and delays.

Two small pieces sit between the raw scheduler and the convergence
driver:

* :class:`MraiTimer` — BGP's Minimum Route Advertisement Interval,
  modelled (as is conventional in abstract convergence studies) as a
  per-AS *activation* rate limit: an AS re-runs route selection no
  sooner than ``interval`` after its previous activation, however many
  advertisements arrive in between.
* :class:`DelayModel` — the run's timing parameters: a base per-link
  propagation delay with optional per-link overrides and seeded jitter,
  the negotiation-update delay (how long a MIRO responder's state change
  takes to reach its requesters — by default the §3.3 four-message
  handshake, see :func:`repro.miro.negotiation.handshake_delay`),
  per-AS MRAI overrides, and the initial activation jitter.

A model with every delay and jitter at zero and one uniform MRAI is
*synchronous* (:attr:`DelayModel.is_synchronous`): nothing distinguishes
any AS's timing, every advertisement lands instantly, and the
discrete-event schedule degenerates to the classic fair rounds — so
:meth:`repro.convergence.MiroConvergenceSystem.run` runs its fair-round
loop instead of the event engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from random import Random
from typing import Dict, Optional, Tuple

from ..errors import EventError
from ..topology.graph import link_key

LinkDelayOverrides = Tuple[Tuple[Tuple[int, int], float], ...]
MraiOverrides = Tuple[Tuple[int, float], ...]


@dataclass(slots=True)
class MraiTimer:
    """Per-AS activation rate limiter (the MRAI abstraction).

    ``earliest(now)`` answers when the next activation may run;
    ``fire(now)`` records that one did.
    """

    interval: float
    last_fire: float = float("-inf")

    def earliest(self, now: float) -> float:
        return max(now, self.last_fire + self.interval)

    def fire(self, now: float) -> None:
        self.last_fire = now


def _check_delay(name: str, value: float) -> None:
    if not (math.isfinite(value) and value >= 0):
        raise EventError(f"{name} must be finite and non-negative, got {value!r}")


@dataclass(frozen=True, slots=True)
class DelayModel:
    """The timing parameters of one event-driven convergence run.

    All times are simulated seconds.  ``link_overrides`` /
    ``mrai_overrides`` are given as tuples of pairs so the model stays
    hashable and reusable across runs; jitter is drawn from the run's
    own :class:`random.Random` stream (threaded in by the caller), so a
    model object itself carries no randomness.
    """

    #: base propagation delay on every link
    link_delay: float = 0.0
    #: uniform-random extra delay in ``[0, link_jitter]`` per delivery
    link_jitter: float = 0.0
    #: delay for a responder's state change to reach its requesters
    negotiation_delay: float = 0.0
    #: default per-AS MRAI (activation rate limit)
    mrai: float = 1.0
    #: uniform-random offset in ``[0, activation_jitter]`` for each AS's
    #: initial activation
    activation_jitter: float = 0.0
    #: per-link delay overrides: ``((a, b), delay)`` pairs
    link_overrides: LinkDelayOverrides = ()
    #: per-AS MRAI overrides: ``(asn, mrai)`` pairs
    mrai_overrides: MraiOverrides = ()
    _link_map: Dict[Tuple[int, int], float] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )
    _mrai_map: Dict[int, float] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        for name in ("link_delay", "link_jitter", "negotiation_delay",
                     "mrai", "activation_jitter"):
            _check_delay(name, getattr(self, name))
        for (a, b), delay in self.link_overrides:
            _check_delay(f"link delay override {a}-{b}", delay)
        for asn, mrai in self.mrai_overrides:
            _check_delay(f"MRAI override for AS {asn}", mrai)
        self._link_map.update(
            (link_key(a, b), delay)
            for (a, b), delay in self.link_overrides
        )
        self._mrai_map.update(self.mrai_overrides)

    # ------------------------------------------------------------------
    # resolution
    # ------------------------------------------------------------------
    def link_delay_for(
        self, a: int, b: int, rng: Optional[Random] = None
    ) -> float:
        """Delay for one delivery across the a—b link (jitter included)."""
        base = self._link_map.get(link_key(a, b), self.link_delay)
        if self.link_jitter and rng is not None:
            return base + rng.uniform(0.0, self.link_jitter)
        return base

    def mrai_for(self, asn: int) -> float:
        return self._mrai_map.get(asn, self.mrai)

    def initial_offset(self, rng: Optional[Random] = None) -> float:
        """Jittered start offset for one AS's first activation."""
        if self.activation_jitter and rng is not None:
            return rng.uniform(0.0, self.activation_jitter)
        return 0.0

    @property
    def is_synchronous(self) -> bool:
        """Whether this model degenerates to synchronous fair rounds.

        True when no delay, jitter, or per-AS override can separate any
        two ASes' event timestamps — every activation wave lands at one
        instant, so a convergence run is round-for-round the fair
        synchronous loop (round ``k`` at ``k * mrai``).
        """
        return (
            self.link_delay == 0.0
            and self.link_jitter == 0.0
            and self.negotiation_delay == 0.0
            and self.activation_jitter == 0.0
            and not self.link_overrides
            and not self.mrai_overrides
        )


#: The zero-delay model: the default of a convergence run, which then
#: executes as classic fair rounds.
SYNCHRONOUS = DelayModel()
