"""Golden paper outputs, compared exactly.

Under Gao–Rexford policies the stable routing state is unique and the
generator is seeded, so each data set's full evaluation export
(:func:`repro.experiments.export.export_results`, seed 0, run keys
dropped) is a fixed value.  The recorded files live in ``tests/golden/``
and are rewritten only by ``tools/record_golden.py``, whose
:data:`CASES` and :func:`render` this test shares.

Every case runs on the active kernel, so the default, the
``REPRO_KERNEL=batched`` and the no-numpy runs each check their own
kernel; ``small`` is also checked under each kernel explicitly.
"""

import importlib.util
import pathlib

import pytest

from repro.bgp import kernels

_TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "record_golden.py"


def _load_recorder():
    spec = importlib.util.spec_from_file_location("record_golden", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_RECORDER = _load_recorder()


def _first_difference(actual, expected):
    """``(line number, got, expected)`` of the first differing line."""
    got, want = actual.splitlines(), expected.splitlines()
    for number, (a, b) in enumerate(zip(got, want), 1):
        if a != b:
            return number, a.strip(), b.strip()
    number = min(len(got), len(want)) + 1
    return number, f"{len(got)} lines", f"{len(want)} lines"


def _assert_matches_golden(dataset):
    path = _RECORDER.golden_path(dataset)
    expected = path.read_text()
    actual = _RECORDER.render(dataset)
    if actual != expected:
        line, got, want = _first_difference(actual, expected)
        pytest.fail(
            f"{dataset.name}: export differs from {path.name} at line "
            f"{line}:\n  got:      {got}\n  expected: {want}\n"
            "rerun `PYTHONPATH=src python tools/record_golden.py` only if "
            "the change is meant to move a paper output"
        )


@pytest.mark.parametrize(
    "dataset", _RECORDER.CASES, ids=lambda dataset: dataset.name
)
def test_export_matches_golden(dataset):
    _assert_matches_golden(dataset)


@pytest.mark.parametrize("kernel", kernels.KERNELS)
def test_small_matches_golden_on_each_kernel(kernel):
    if kernel not in kernels.available():
        pytest.skip(f"{kernel} kernel unavailable (numpy not installed)")
    previous = kernels.set_active(kernel)
    try:
        _assert_matches_golden(_RECORDER.CASES[0])
    finally:
        kernels.set_active(previous)
