"""Unified benchmark trajectory: one record schema, one file per commit.

Seven PRs of claimed speedups each left their own ad-hoc JSON blob in a
benchmark's stdout; nothing was comparable across commits, so a
regression in any hot path would land silently.  This module replaces
all of that with one plane:

* a :class:`BenchRecord` is the canonical sample — ``(suite, metric,
  value, unit)`` plus the context that makes trajectories comparable:
  topology name/size, the active kernel backend, the git sha and a
  timestamp.  The sha and timestamp are **injected** by the caller (the
  pytest fixture) rather than read ambiently here, so records
  are a pure function of their inputs and replays are deterministic;
* a :class:`BenchReporter` collects records and writes the single
  ``BENCH_<sha>.json`` trajectory document; writing again for the same
  sha merges by ``(suite, metric)``, so every ``benchmarks/`` file of
  one pytest run (and a second run, e.g. under another kernel) appends
  to the same file;
* :func:`compare` diffs two trajectory documents and reports every
  metric that moved beyond a threshold in its *bad* direction (each
  record declares whether lower or higher is better).  Records flagged
  ``gate=True`` are the designated hot-path metrics — settle phase
  time, pool ship bytes/seconds, event-engine throughput, warm-cache
  hit latency — and only those make the comparison fail, which is what
  ``repro bench compare`` turns into a nonzero exit for CI.

The schema is versioned (``repro-bench/1``); :func:`validate_document`
rejects anything else before a comparison can silently mis-read it.
"""

from __future__ import annotations

import json
import os
import subprocess
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from ..errors import ObservabilityError

__all__ = [
    "SCHEMA",
    "BenchRecord",
    "BenchReporter",
    "SuiteReporter",
    "MetricDelta",
    "CompareReport",
    "detect_git_sha",
    "load_trajectory",
    "validate_document",
    "compare",
]

#: Trajectory document schema identifier (bump on incompatible change).
SCHEMA = "repro-bench/1"

#: Units where a *smaller* value is the improvement.
_LOWER_IS_BETTER_UNITS = frozenset({"seconds", "bytes"})


def _default_better(unit: str) -> str:
    return "lower" if unit in _LOWER_IS_BETTER_UNITS else "higher"


@dataclass(slots=True)
class BenchRecord:
    """One benchmark sample in the canonical trajectory schema."""

    suite: str
    metric: str
    value: float
    unit: str
    #: Which direction is an improvement: ``"lower"`` or ``"higher"``.
    better: str = "lower"
    #: Designated hot-path metric: regressions here fail ``bench compare``.
    gate: bool = False
    topology: Optional[str] = None
    topology_size: Optional[int] = None

    def __post_init__(self) -> None:
        if self.better not in ("lower", "higher"):
            raise ObservabilityError(
                f"better must be 'lower' or 'higher', got {self.better!r}"
            )
        if not self.suite or not self.metric:
            raise ObservabilityError(
                "bench records need a non-empty suite and metric name"
            )
        self.value = float(self.value)

    @property
    def key(self) -> Tuple[str, str]:
        return (self.suite, self.metric)


class SuiteReporter:
    """A :class:`BenchReporter` view bound to one suite name."""

    __slots__ = ("_reporter", "suite")

    def __init__(self, reporter: "BenchReporter", suite: str) -> None:
        self._reporter = reporter
        self.suite = suite

    def record(self, metric: str, value: float, unit: str, **kwargs: Any) -> BenchRecord:
        return self._reporter.record(self.suite, metric, value, unit, **kwargs)


class BenchReporter:
    """Collects :class:`BenchRecord` samples and writes the trajectory.

    ``sha`` and ``timestamp`` identify the commit and the run; both are
    injected by the caller (``detect_git_sha()`` + ``time.time()`` at
    the edge) so this layer never reads ambient state.
    """

    def __init__(
        self,
        sha: str,
        timestamp: float,
        kernel: Optional[str] = None,
        echo: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.sha = sha or "unknown"
        self.timestamp = float(timestamp)
        self.kernel = kernel
        self._echo = echo
        self.records: List[BenchRecord] = []

    def record(
        self,
        suite: str,
        metric: str,
        value: float,
        unit: str,
        better: Optional[str] = None,
        gate: bool = False,
        topology: Optional[str] = None,
        topology_size: Optional[int] = None,
    ) -> BenchRecord:
        """Append one sample; direction defaults from the unit."""
        rec = BenchRecord(
            suite=suite,
            metric=metric,
            value=value,
            unit=unit,
            better=better or _default_better(unit),
            gate=gate,
            topology=topology,
            topology_size=topology_size,
        )
        self.records.append(rec)
        if self._echo is not None:
            self._echo(
                f"BENCH {rec.suite}.{rec.metric}={rec.value:g} {rec.unit}"
            )
        return rec

    def suite(self, name: str) -> SuiteReporter:
        """A recording handle pre-bound to one suite name."""
        return SuiteReporter(self, name)

    # ------------------------------------------------------------------
    # document I/O
    # ------------------------------------------------------------------
    def to_document(self) -> Dict[str, Any]:
        """The JSON-ready trajectory document for this run."""
        return {
            "schema": SCHEMA,
            "sha": self.sha,
            "timestamp": self.timestamp,
            "kernel": self.kernel,
            "records": [asdict(rec) for rec in self.records],
        }

    def filename(self) -> str:
        return f"BENCH_{self.sha}.json"

    def write(self, directory: Union[str, Path] = ".") -> Path:
        """Write (or merge into) ``<directory>/BENCH_<sha>.json``.

        When the file already exists for the same sha, its records are
        kept except where this run re-measured the same ``(suite,
        metric)`` — so a pytest benchmark session and a ``repro bench
        run`` accumulate into one trajectory file per commit.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / self.filename()
        records = list(self.records)
        if path.exists():
            previous = load_trajectory(path)
            fresh = {rec.key for rec in records}
            carried = [
                rec for rec in _parse_records(previous)
                if rec.key not in fresh
            ]
            records = carried + records
        document = self.to_document()
        document["records"] = [asdict(rec) for rec in records]
        path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
        return path


def detect_git_sha(root: Optional[Union[str, Path]] = None) -> str:
    """The commit identity stamped into trajectory records.

    ``REPRO_BENCH_SHA`` wins (CI injects the exact sha it checked out);
    otherwise ``git rev-parse --short HEAD``; ``"unknown"`` when neither
    is available (e.g. an sdist without the repository).
    """
    env = os.environ.get("REPRO_BENCH_SHA")
    if env:
        return env
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=str(root) if root else None,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def validate_document(document: Any) -> Dict[str, Any]:
    """Check a trajectory document against the schema; return it."""
    if not isinstance(document, dict):
        raise ObservabilityError("bench trajectory must be a JSON object")
    if document.get("schema") != SCHEMA:
        raise ObservabilityError(
            f"unsupported bench schema {document.get('schema')!r}; "
            f"this build reads {SCHEMA!r}"
        )
    for field_name in ("sha", "timestamp", "records"):
        if field_name not in document:
            raise ObservabilityError(
                f"bench trajectory is missing the {field_name!r} field"
            )
    if not isinstance(document["records"], list):
        raise ObservabilityError("bench trajectory records must be a list")
    _parse_records(document)
    return document


def _parse_records(document: Dict[str, Any]) -> List[BenchRecord]:
    records = []
    for raw in document["records"]:
        try:
            records.append(BenchRecord(**raw))
        except (TypeError, ObservabilityError) as exc:
            raise ObservabilityError(
                f"malformed bench record {raw!r}: {exc}"
            ) from exc
    return records


def load_trajectory(path: Union[str, Path]) -> Dict[str, Any]:
    """Read and validate one ``BENCH_<sha>.json`` document."""
    try:
        document = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ObservabilityError(
            f"cannot read bench trajectory {path}: {exc}"
        ) from exc
    return validate_document(document)


# ----------------------------------------------------------------------
# comparison (the CI regression gate)
# ----------------------------------------------------------------------
@dataclass(slots=True)
class MetricDelta:
    """One metric's movement between a baseline and a current run."""

    suite: str
    metric: str
    unit: str
    baseline: float
    current: float
    #: Signed percent change in the *bad* direction (positive = worse).
    regression_pct: float
    gate: bool

    @property
    def name(self) -> str:
        return f"{self.suite}.{self.metric}"


@dataclass(slots=True)
class CompareReport:
    """Everything ``repro bench compare`` prints and gates on."""

    baseline_sha: str
    current_sha: str
    threshold_pct: float
    deltas: List[MetricDelta] = field(default_factory=list)
    missing: List[str] = field(default_factory=list)
    added: List[str] = field(default_factory=list)

    @property
    def regressions(self) -> List[MetricDelta]:
        """Gated metrics that degraded beyond the threshold."""
        return [
            d for d in self.deltas
            if d.gate and d.regression_pct > self.threshold_pct
        ]

    @property
    def warnings(self) -> List[MetricDelta]:
        """Un-gated metrics that degraded beyond the threshold."""
        return [
            d for d in self.deltas
            if not d.gate and d.regression_pct > self.threshold_pct
        ]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def to_dict(self) -> Dict[str, Any]:
        return {
            "baseline_sha": self.baseline_sha,
            "current_sha": self.current_sha,
            "threshold_pct": self.threshold_pct,
            "ok": self.ok,
            "regressions": [asdict(d) for d in self.regressions],
            "warnings": [asdict(d) for d in self.warnings],
            "deltas": [asdict(d) for d in self.deltas],
            "missing": self.missing,
            "added": self.added,
        }

    def render(self) -> str:
        lines = [
            f"bench compare: {self.baseline_sha} -> {self.current_sha} "
            f"(threshold {self.threshold_pct:g}%)"
        ]
        for delta in sorted(
            self.deltas, key=lambda d: -d.regression_pct
        ):
            marker = (
                "REGRESSION" if delta.gate
                and delta.regression_pct > self.threshold_pct
                else "warn" if delta.regression_pct > self.threshold_pct
                else "ok"
            )
            lines.append(
                f"  [{marker:>10}] {delta.name}: "
                f"{delta.baseline:g} -> {delta.current:g} {delta.unit} "
                f"({delta.regression_pct:+.1f}% worse)"
                if delta.regression_pct >= 0 else
                f"  [{marker:>10}] {delta.name}: "
                f"{delta.baseline:g} -> {delta.current:g} {delta.unit} "
                f"({-delta.regression_pct:.1f}% better)"
            )
        if self.missing:
            lines.append(
                "  missing from current run: " + ", ".join(self.missing)
            )
        if self.added:
            lines.append("  new in current run: " + ", ".join(self.added))
        verdict = (
            "OK — no gated metric regressed beyond the threshold"
            if self.ok else
            "FAIL — gated hot-path metrics regressed: "
            + ", ".join(d.name for d in self.regressions)
        )
        lines.append(verdict)
        return "\n".join(lines)


def compare(
    baseline: Dict[str, Any],
    current: Dict[str, Any],
    threshold_pct: float = 10.0,
) -> CompareReport:
    """Diff two validated trajectory documents.

    A metric's *regression percent* is its percent change in the bad
    direction (the record's ``better`` field orients the sign), so one
    threshold covers latencies and throughputs alike.  Gated metrics
    present in the baseline but missing from the current run are
    reported in ``missing`` — a silently dropped gate metric must not
    read as a pass.
    """
    validate_document(baseline)
    validate_document(current)
    base = {rec.key: rec for rec in _parse_records(baseline)}
    cur = {rec.key: rec for rec in _parse_records(current)}
    report = CompareReport(
        baseline_sha=str(baseline["sha"]),
        current_sha=str(current["sha"]),
        threshold_pct=float(threshold_pct),
    )
    for key in sorted(base):
        if key not in cur:
            report.missing.append(f"{key[0]}.{key[1]}")
            continue
        b, c = base[key], cur[key]
        if b.value == 0:
            pct = 0.0 if c.value == b.value else float("inf")
        else:
            pct = (c.value - b.value) / abs(b.value) * 100.0
        if c.better == "higher":
            pct = -pct + 0.0  # (+0.0 normalizes -0.0 for rendering)
        report.deltas.append(MetricDelta(
            suite=c.suite, metric=c.metric, unit=c.unit,
            baseline=b.value, current=c.value,
            regression_pct=pct, gate=b.gate or c.gate,
        ))
    report.added = [
        f"{k[0]}.{k[1]}" for k in sorted(cur) if k not in base
    ]
    return report
