"""The repository's end-to-end benchmark: one command per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run starts the workload in its own process (``workloads.py``) and
checks its outputs.  With ``--trace 0`` it prints every end-to-end
metric of ``BENCHMARK.json`` with its unit and sample count.  With
``--trace 1`` it first makes the same untraced run, then one traced run
whose spans time the calls into each layer, and prints every per-layer
metric; the spans are written to ``.perfbench-out/``.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only for a correct run.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")

#: Every child process must end within this many seconds of the start.
DEADLINE_S = 170.0

sys.path.insert(0, HERE)
from workloads import WORKLOADS  # noqa: E402


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child(workload: str, seed: int, seconds: int, trace: bool,
          deadline: float, spans_out: Optional[str] = None) -> Dict:
    """Run one workload process to completion and return its result."""
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    if spans_out:
        cmd += ["--spans-out", spans_out]
    env = dict(os.environ)
    env.pop("REPRO_KERNEL", None)  # the default kernel resolution
    env["PYTHONPATH"] = SRC
    # its own session, so pool workers it leaves behind can be reaped
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, env=env,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        out = None
        proc.send_signal(signal.SIGUSR1)  # the late run's stacks, to stderr
        time.sleep(1.0)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if out is None:
        raise BenchError(f"{workload} did not finish before the deadline")
    if proc.returncode != 0:
        raise BenchError(f"{workload} exited with code {proc.returncode}")
    lines = [line for line in out.splitlines() if line.strip()]
    if not lines:
        raise BenchError(f"{workload} printed no result")
    return json.loads(lines[-1])


def show(name: str, value: float, unit: str, count: int) -> None:
    print(f"  {name:<40} {value:>14.4f} {unit:<6} n={count}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)

    deadline = time.monotonic() + DEADLINE_S
    try:
        base = child(args.workload, args.seed, args.seconds, False, deadline)
        traced = None
        if args.trace:
            os.makedirs(OUT_DIR, exist_ok=True)
            spans = os.path.join(
                OUT_DIR, f"{args.workload}-seed{args.seed}-spans.json")
            traced = child(args.workload, args.seed, args.seconds, True,
                           deadline, spans)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds} (untraced run)")
    for name, (value, unit, count) in base["metrics"].items():
        show(name, value, unit, count)
    for name, (value, unit, count) in sorted(base["named"].items()):
        show(name, value, unit, count)
    problems = list(base["problems"])
    report = base
    metrics = {m["name"]: {"value": base["metrics"][m["name"]][0],
                           "unit": m["unit"]}
               for m in spec["end_to_end"]}

    if traced is not None:
        problems += [f"traced: {p}" for p in traced["problems"]]
        layers = dict(traced["layers"])
        layers["bench.trace_overhead_ratio"] = traced["cpu_s"] / base["cpu_s"]
        print(f"perfbench {args.workload} seed={args.seed} (traced run, "
              f"spans in {os.path.relpath(spans, ROOT)})")
        metrics = {}
        for m in spec["per_layer"]:
            value = float(layers.get(m["name"], 0.0))
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            print(f"  {m['name']:<40} {value:>14.4f} {m['unit']}")
        report = traced

    for problem in problems:
        print(f"INCORRECT: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
