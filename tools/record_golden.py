#!/usr/bin/env python
"""Record the golden paper outputs that tier 1 compares exactly.

Under Gao–Rexford policies the stable routing state is unique and the
topology generator is seeded, so every paper output for a given
(profile, seed) is a fixed value.  This script runs
:func:`repro.experiments.export.export_results` (seed 0) on the ``small``
data set and on the four Table 5.1 data sets and writes one canonical
JSON file per data set under ``tests/golden/``.  The run-dependent keys
(``kernel``, ``session_stats``, ``metrics``) are dropped; everything
left is a paper artifact.

Each graph is generated fresh from its profile and seed rather than
through the cached :meth:`Dataset.build`, which hands one shared graph
object to every caller.

Run from the repo root after a change that is meant to move a paper
output, and commit the diff with it::

    PYTHONPATH=src python tools/record_golden.py

``tests/test_golden.py`` loads this file for :data:`CASES` and
:func:`render`, so the recorder and the check cannot drift apart.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.experiments.datasets import DATASETS, SMALL_DATASET
from repro.experiments.export import export_results
from repro.topology.generator import generate_topology

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "tests" / "golden"

#: Keys of the export that describe the run rather than the paper.
RUN_KEYS = ("kernel", "session_stats", "metrics")

#: The recorded data sets, small first (it is the quickest to check).
CASES = (SMALL_DATASET,) + DATASETS


def golden_path(dataset) -> Path:
    return GOLDEN_DIR / (dataset.name.lower().replace(" ", "-") + ".json")


def render(dataset) -> str:
    """The canonical golden text for ``dataset`` on the active kernel."""
    graph = generate_topology(dataset.profile, seed=dataset.seed)
    document = export_results(graph, dataset.name, seed=0)
    for key in RUN_KEYS:
        document.pop(key, None)
    return json.dumps(document, indent=1) + "\n"


def main() -> int:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for dataset in CASES:
        path = golden_path(dataset)
        path.write_text(render(dataset))
        print(f"wrote {path.relative_to(GOLDEN_DIR.parent.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
