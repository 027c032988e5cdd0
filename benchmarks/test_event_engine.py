"""Event-engine throughput.

The bare discrete-event scheduler must sustain a healthy events/second
rate: the churn experiments and every arrival-driven convergence run
lean on it for thousands of timer and delta dispatches.  The figure
lands in the unified bench trajectory via ``bench_report``.
"""

import time

from repro.events import EventScheduler

N_EVENTS = 50_000
MIN_EVENTS_PER_SECOND = 50_000  # conservative floor; ~10x headroom locally


def test_scheduler_throughput(benchmark, bench_report):
    def pump():
        scheduler = EventScheduler()
        scheduler.register("tick", lambda event: None)
        for index in range(N_EVENTS):
            scheduler.schedule(float(index), "tick")
        start = time.perf_counter()
        dispatched = scheduler.run()
        elapsed = time.perf_counter() - start
        assert dispatched == N_EVENTS
        return elapsed

    elapsed = benchmark.pedantic(pump, rounds=1, iterations=1)
    events_per_second = N_EVENTS / elapsed if elapsed else float("inf")

    bench_report.record("dispatch_seconds", elapsed, "seconds")
    bench_report.record("events_per_second", events_per_second, "events/s",
                        better="higher", gate=True)

    assert events_per_second >= MIN_EVENTS_PER_SECOND
