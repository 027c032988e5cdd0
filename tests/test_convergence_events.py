"""Pinned Ch. 7 outcomes, the arrival-driven regime, and churn semantics.

Under Gao–Rexford policies the stable state is unique and every run is
seeded, so the Ch. 7 counterexamples and the random-topology guideline
runs have fixed outcomes.  They are pinned exactly here — outcome,
round count, simulated clock, activation count and a sha256 of the
pickled ``final_state`` — for synchronous runs of
:meth:`MiroConvergenceSystem.run`.  Plus: the arrival-driven regime
(any delay model that separates event timestamps) reaches the same
states, is deterministic under one seed, and still trips the budget on
a divergent gadget; and mid-run churn keeps the delta journal
consistent and re-converges to the oracle's post-flap state.
"""

import hashlib
import pickle
import random

import pytest

from repro.bgp.routing import compute_routes
from repro.convergence import (
    GaoRexfordRanker,
    GuidelineMode,
    MiroConvergenceSystem,
    bad_gadget_bgp_system,
    fig_7_1_system,
    fig_7_2_system,
    proof_schedule_strict,
    run_churn,
)
from repro.errors import ConvergenceError
from repro.events import DelayModel
from repro.topology import TimedDelta, TopologyDelta
from repro.topology.generator import TINY, generate_topology

FIGURES = {"7.1": fig_7_1_system, "7.2": fig_7_2_system}

# Fig. 7.1 / 7.2 final states (sha256 of the pickled ``final_state``).
_F71_UNRESTRICTED = "cc80c300a174e396c894d957fad424db73ab08090b8a48456da03a2771dcc2f8"
_F71_BC = "a9e1b66c0b103b22e6d2242bd0c076a88ee52725b95e9af1d6bf6eac2ec25e1b"
_F71_DE = "df03ca550a117e60d5a2432dbe07fc8b3187dd145cbeef6976c01b1542066ea7"
_F72_UNRESTRICTED = "26114c7911066b4b7ebfe04d53bd8640a3c10c48b3467d1d207f8b83a59ff664"
_F72_BCE = "f583aea083107fad9da484c65fd4a64a3af90360040c7655f46b06b3ddbb1cbd"
_F72_D = "d07ea759caeb489f587b2bcaf645a0584942f0cc9fc1b576f8e3ef033f974846"
_TINY3 = "a656e5f7a63cfc2f3e6a004f4b5b3f333fbb99b8aebaafdae039553c5d6e00b1"

#: (figure, mode) -> (converged, oscillating, rounds, sim_time,
#: activations, final_state digest), at the default 1 s MRAI
PINNED = {
    ("7.1", "unrestricted"): (False, True, 5, 4.0, 20, _F71_UNRESTRICTED),
    ("7.1", "B"): (True, False, 3, 2.0, 12, _F71_BC),
    ("7.1", "C"): (True, False, 3, 2.0, 12, _F71_BC),
    ("7.1", "D"): (True, False, 2, 1.0, 8, _F71_DE),
    ("7.1", "E"): (True, False, 2, 1.0, 8, _F71_DE),
    ("7.2", "unrestricted"): (False, True, 5, 4.0, 20, _F72_UNRESTRICTED),
    ("7.2", "B"): (True, False, 3, 2.0, 12, _F72_BCE),
    ("7.2", "C"): (True, False, 3, 2.0, 12, _F72_BCE),
    ("7.2", "D"): (True, False, 4, 3.0, 16, _F72_D),
    ("7.2", "E"): (True, False, 3, 2.0, 12, _F72_BCE),
}


def _outcome(result):
    digest = hashlib.sha256(
        pickle.dumps(result.final_state, protocol=4)
    ).hexdigest()
    return (result.converged, result.oscillating, result.rounds,
            result.sim_time, result.activations, digest)


def _tiny_seed3_system(mode):
    from repro.experiments.convergence import _orders_for, _random_demands

    graph = generate_topology(TINY, seed=3)
    destinations, demands = _random_demands(graph, 6, random.Random(3))
    orders = _orders_for(demands) if mode is GuidelineMode.GUIDELINE_D \
        else None
    return MiroConvergenceSystem(
        graph, destinations=destinations, demands=demands, mode=mode,
        ranker=GaoRexfordRanker(graph), partial_orders=orders,
    )


# ----------------------------------------------------------------------
# pinned synchronous outcomes
# ----------------------------------------------------------------------
@pytest.mark.parametrize("figure, mode", sorted(PINNED),
                         ids=["/".join(key) for key in sorted(PINNED)])
def test_counterexample_outcome_is_pinned(figure, mode):
    system = FIGURES[figure](GuidelineMode(mode))
    assert _outcome(system.run()) == PINNED[(figure, mode)]


@pytest.mark.parametrize("seed", [1, 7, 42])
def test_seeded_shuffles_are_pinned(seed):
    result = fig_7_2_system(GuidelineMode.GUIDELINE_D).run(seed=seed)
    assert _outcome(result) == (True, False, 4, 3.0, 16, _F72_D)


@pytest.mark.parametrize("mode", [GuidelineMode.GUIDELINE_B,
                                  GuidelineMode.GUIDELINE_D],
                         ids=lambda m: m.value)
def test_random_topology_outcome_is_pinned(mode):
    result = _tiny_seed3_system(mode).run()
    assert _outcome(result) == (True, False, 4, 3.0, 160, _TINY3)


def test_synchronous_clock_follows_the_mrai():
    result = fig_7_1_system(GuidelineMode.GUIDELINE_B).run(
        delays=DelayModel(mrai=2.5)
    )
    assert (result.rounds, result.sim_time) == (3, 5.0)


def test_schedule_counts_its_own_round_lengths():
    system = fig_7_2_system(GuidelineMode.GUIDELINE_D)
    schedule = proof_schedule_strict(system.graph)
    result = system.run(max_rounds=10, schedule=schedule)
    assert result.converged
    lengths = [len(schedule[i % len(schedule)]) for i in range(result.rounds)]
    assert result.activations == sum(lengths)
    assert result.final_state == fig_7_2_system(
        GuidelineMode.GUIDELINE_D
    ).run().final_state


def test_schedule_needs_synchronous_delays():
    system = fig_7_1_system(GuidelineMode.GUIDELINE_B)
    with pytest.raises(ConvergenceError, match="synchronous"):
        system.run(schedule=[system.graph.ases],
                   delays=DelayModel(link_delay=0.1))


# ----------------------------------------------------------------------
# arrival-driven regime
# ----------------------------------------------------------------------
def test_async_converges_to_round_mode_state():
    delays = DelayModel(link_delay=0.1, negotiation_delay=0.2, mrai=1.0)
    expected = fig_7_1_system(GuidelineMode.GUIDELINE_B).run().final_state
    result = fig_7_1_system(GuidelineMode.GUIDELINE_B).run(delays=delays)
    assert result.converged
    assert result.final_state == expected
    assert result.sim_time > 0.0


def test_async_is_deterministic_under_one_seed():
    delays = DelayModel(link_delay=0.1, link_jitter=0.05,
                        activation_jitter=0.3)
    results = [
        fig_7_2_system(GuidelineMode.GUIDELINE_E).run(
            seed=99, delays=delays
        )
        for _ in range(2)
    ]
    assert results[0] == results[1]
    different = fig_7_2_system(GuidelineMode.GUIDELINE_E).run(
        seed=100, delays=delays
    )
    # a different seed may converge elsewhere in time, never in state
    assert different.final_state == results[0].final_state


def test_async_divergent_gadget_trips_budget():
    delays = DelayModel(link_delay=0.1, mrai=0.5)
    result = bad_gadget_bgp_system().run(max_rounds=25, delays=delays)
    assert not result.converged
    assert not result.oscillating  # no cycle proof in the async regime
    assert result.activations >= 25  # the budget, not an early stall


def test_per_as_mrai_overrides_slow_one_as():
    delays = DelayModel(link_delay=0.1, mrai=1.0, mrai_overrides=((1, 5.0),))
    result = fig_7_1_system(GuidelineMode.GUIDELINE_B).run(delays=delays)
    assert result.converged
    expected = fig_7_1_system(GuidelineMode.GUIDELINE_B).run().final_state
    assert result.final_state == expected


# ----------------------------------------------------------------------
# apply_event mid-run: journal consistency + oracle re-convergence
# ----------------------------------------------------------------------
def test_mid_run_flap_keeps_journal_consistent_and_reconverges():
    system = fig_7_1_system(GuidelineMode.GUIDELINE_B)
    graph = system.graph
    version_start = graph.version
    repair = TopologyDelta.link_restore(graph, 1, 4)
    churn = run_churn(
        system,
        [TimedDelta(2.0, TopologyDelta.link_down(1, 4)),
         TimedDelta(6.0, repair)],
        delays=DelayModel(link_delay=0.1, mrai=1.0),
    )
    assert churn.converged
    assert churn.injections == 2
    assert len(churn.applied) == 2
    # the version journal advanced once per applied delta and the graph
    # reports exactly the flapped link as changed since the start
    down, up = churn.applied
    assert down.changed_links == frozenset({(1, 4)})
    assert up.changed_links == frozenset({(1, 4)})
    assert graph.version == up.version_after
    assert graph.has_link(1, 4)
    # reverting the records in reverse order walks the journal back to
    # the pre-churn version (transaction stack consistency)
    up.revert()
    assert graph.version == down.version_after
    down.revert()
    assert graph.version == version_start
    assert graph.has_link(1, 4)


def test_post_flap_state_matches_oracle():
    """After a flap storm settles, the BGP layer equals compute_routes."""
    graph = generate_topology(TINY, seed=5)
    destinations = graph.ases[:3]
    system = MiroConvergenceSystem(
        graph, destinations=destinations, demands=[],
        mode=GuidelineMode.GUIDELINE_B, ranker=GaoRexfordRanker(graph),
    )
    links = sorted((a, b) for a, b, _rel in graph.iter_links())
    a, b = links[0]
    repair = TopologyDelta.link_restore(graph, a, b)
    churn = run_churn(
        system,
        [TimedDelta(3.0, TopologyDelta.link_down(a, b)),
         TimedDelta(6.0, repair),
         TimedDelta(8.0, TopologyDelta.link_down(a, b)),
         TimedDelta(11.0, repair)],
        delays=DelayModel(link_delay=0.1, mrai=1.0),
        max_rounds=500,
    )
    assert churn.converged
    for dest in destinations:
        table = compute_routes(graph, dest)
        for asn in graph.ases:
            selection = system.bgp[(asn, dest)]
            route = table.best(asn)
            if route is None:
                assert selection is None
            else:
                assert selection is not None
                # class and length agree with the closed-form oracle
                assert len(selection.path) == len(route.path)


def test_unconverged_flap_leaves_withdrawals_pending():
    """A failure with no repair withdraws the severed selections for good."""
    system = fig_7_1_system(GuidelineMode.GUIDELINE_B)
    churn = run_churn(
        system,
        [TimedDelta(2.0, TopologyDelta.link_down(1, 4))],
        delays=DelayModel(link_delay=0.1, mrai=1.0),
    )
    assert churn.converged  # quiescent, just with fewer routes
    assert not system.graph.has_link(1, 4)
    for key, selection in system.effective.items():
        if selection is None:
            continue
        path = selection.path
        assert not any(
            {path[i], path[i + 1]} == {1, 4} for i in range(len(path) - 1)
        )


def test_churn_recovery_times_are_recorded():
    system = fig_7_1_system(GuidelineMode.GUIDELINE_B)
    repair = TopologyDelta.link_restore(system.graph, 1, 4)
    churn = run_churn(
        system,
        [TimedDelta(2.0, TopologyDelta.link_down(1, 4)),
         TimedDelta(30.0, repair)],
        delays=DelayModel(link_delay=0.1, mrai=1.0),
    )
    assert churn.converged
    times = dict(churn.recovery_times)
    # well-separated injections get their own quiescence instants
    assert set(times) == {0, 1}
    assert times[0] < 28.0  # the failure settled before the repair fired
    assert churn.max_recovery == max(times.values())
