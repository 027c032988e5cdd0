"""Pool workers never fork while another thread holds a segment lock.

Creating or unlinking a shared-memory segment takes
:mod:`multiprocessing.resource_tracker`'s lock.  A worker forked while
another thread held it inherits it held and blocks for ever on its first
snapshot attach.  Two threads making their first pooled fan-out at once
hit exactly that: one forked workers from ``executor.submit`` while the
other was still inside the shared-memory probe or a publish.  The pool
now forks every worker inside :meth:`_FanoutPool.ensure`, under the same
process-wide ``_FORK_LOCK`` that every parent-side segment create and
unlink takes.
"""

import multiprocessing
import os
import pathlib
import signal
import subprocess
import sys
import textwrap

import pytest

from repro.session import SimulationSession
from repro.session import pool as session_pool

needs_fork = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="workers are forked only under the fork start method",
)

_SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


@needs_fork
def test_every_worker_exists_when_ensure_returns(small_graph):
    pool = session_pool._FanoutPool(max_workers=2)
    try:
        executor, _spec = pool.ensure(small_graph.snapshot())
        # nothing is left for a later submit to fork
        assert len(executor._processes) == 2
    finally:
        pool.close()


@needs_fork
def test_workers_fork_under_the_fork_lock(small_graph, monkeypatch):
    held = []
    real_fork = os.fork

    def recording_fork():
        held.append(session_pool._FORK_LOCK.locked())
        return real_fork()

    monkeypatch.setattr(os, "fork", recording_fork)
    with SimulationSession(small_graph, parallel=True, max_workers=2) as session:
        session.compute_many(small_graph.ases[:12], parallel=True)
        assert session.stats.parallel_fanouts == 1
    assert held == [True, True]


# Two threads make the first pooled fan-out of a fresh process at once.
_RACE = textwrap.dedent("""
    import threading
    from repro.session import SimulationSession
    from repro.topology.generator import SMALL, generate_topology

    graph = generate_topology(SMALL, seed=1)
    session = SimulationSession(graph, parallel=True, max_workers=2)
    barrier = threading.Barrier(2)

    def first_fanout(destinations):
        barrier.wait()
        session.compute_many(destinations)

    threads = [
        threading.Thread(target=first_fanout, args=(graph.ases[i:i + 20],))
        for i in (0, 20)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    session.close()
""")

#: Fresh processes raced per test.  Before the fork lock, 7 of 12 single
#: runs hung, so six runs catch the deadlock in almost every test run.
RACE_RUNS = 6
#: Seconds before a race counts as hung; one takes ~1 s.
RACE_TIMEOUT = 30.0


def _race_once():
    """True when the race finished; a hung process group is killed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(_SRC), env.get("PYTHONPATH")])
    )
    process = subprocess.Popen(
        [sys.executable, "-c", _RACE], env=env, start_new_session=True,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
    )
    try:
        output, _ = process.communicate(timeout=RACE_TIMEOUT)
    except subprocess.TimeoutExpired:
        # the workers share the process group: take them down too
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        return False
    assert process.returncode == 0, output.decode(errors="replace")
    return True


@needs_fork
def test_two_thread_first_fanout_never_deadlocks():
    for run in range(RACE_RUNS):
        assert _race_once(), f"first-fan-out race {run + 1} hung"
