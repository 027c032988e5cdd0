"""Regenerate ``digests.json``, the paper workloads' recorded outputs.

    python3 perfbench/record_digests.py

Records one pass's digest per paper workload, for the sampling seed
every pass uses.  Regenerate only when the program's outputs are meant
to change, and review the diff.
"""

from __future__ import annotations

import json

from workloads import DIGESTS_FILE, PAPER, SAMPLE_SEED, Run


def main() -> None:
    recorded = {}
    for workload, (setup, one_pass) in PAPER.items():
        run = Run(workload, 0, 0.0, trace=False)
        one_pass(run, setup(), SAMPLE_SEED)
        if run.problems:
            raise SystemExit(f"{workload}: {run.problems}")
        recorded[workload] = {str(sseed): value for sseed, value in run.digests}
    with open(DIGESTS_FILE, "w") as handle:
        json.dump(recorded, handle, indent=2, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
