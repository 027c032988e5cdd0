"""Benchmark fixtures: shared data sets plus the unified bench trajectory.

Every benchmark module records its headline numbers through the
``bench_report`` fixture — a suite-bound handle on one session-wide
:class:`repro.obs.bench.BenchReporter` — instead of printing ad-hoc JSON.
At session exit the collected records land in a single
``BENCH_<sha>.json`` trajectory file (directory from ``$REPRO_BENCH_DIR``,
default the working directory), which ``repro bench compare`` gates in CI.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.bgp import kernels
from repro.experiments import DATASETS
from repro.obs.bench import BenchReporter, detect_git_sha


@pytest.fixture(scope="session")
def datasets():
    """name -> built ASGraph for all four paper data sets."""
    return {ds.name: ds.build() for ds in DATASETS}


@pytest.fixture(scope="session")
def gao_2005(datasets):
    return datasets["Gao 2005"]


@pytest.fixture(scope="session")
def bench_trajectory():
    """The session-wide reporter; writes BENCH_<sha>.json at exit."""
    reporter = BenchReporter(
        sha=detect_git_sha(),
        timestamp=time.time(),
        kernel=kernels.resolve(),
        echo=lambda line: print("\n" + line, end=""),
    )
    yield reporter
    if reporter.records:
        path = reporter.write(os.environ.get("REPRO_BENCH_DIR", "."))
        print(f"\nbench trajectory: {len(reporter.records)} records -> {path}")


@pytest.fixture
def bench_report(bench_trajectory, request):
    """A recording handle bound to this module's suite name.

    The suite is the benchmark module name without its ``test_`` prefix,
    so ``benchmarks/test_session_cache.py`` records under suite
    ``session_cache``.
    """
    module = request.module.__name__.rpartition(".")[2]
    if module.startswith("test_"):
        module = module[len("test_"):]
    return bench_trajectory.suite(module)
