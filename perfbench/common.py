"""Shared helpers: locating the program, statistics, answers and results."""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

#: Root of the checkout (the directory holding ``perfbench/`` and ``src/``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout for TSV inputs, logs and reports.
WORK = ROOT / ".perfbench"


class ProgramMissing(RuntimeError):
    """The checkout does not hold the program's sources."""


def bootstrap() -> None:
    """Make ``import repro`` load the checkout's ``src/repro``."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise ProgramMissing(f"no program sources at {SRC / 'repro'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


# -- statistics ---------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no values")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def tail(values: Sequence[float]) -> Tuple[float, int, int]:
    """The highest whole percentile with at least ten samples beyond it.

    Returns ``(value, percentile, samples)``; the value is the
    nearest-rank sample, so exactly ``samples - rank >= 10`` samples lie
    above it.  Below 11 samples there is no such percentile and the
    maximum is returned with percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100, n
    pct = max(p for p in range(1, 100) if n - math.ceil(p * n / 100.0) >= 10)
    rank = math.ceil(pct * n / 100.0)
    return ordered[rank - 1], pct, n


# -- host speed -----------------------------------------------------------------
#
# The benchmark runs on a few cores of a shared host whose speed moves by
# up to a third within seconds as other tenants load the same cores; the
# program's pure-Python and numpy code slow down together.  Each timed
# call is bracketed by a fixed reference slice of the same kinds of work,
# and its time is reported scaled to a host on which that slice takes
# ``NOMINAL_REFERENCE_S``.  Raw times are kept in the report beside the
# scaled ones.

#: Seconds the reference slice takes on the nominal host (about its
#: fastest runs on a shared 2-CPU x86-64 host).
NOMINAL_REFERENCE_S = 0.009

_REFERENCE_ARRAY = None


def reference_seconds() -> float:
    """Time one fixed slice of interpreter and numpy work."""
    global _REFERENCE_ARRAY
    import numpy

    if _REFERENCE_ARRAY is None:
        _REFERENCE_ARRAY = numpy.random.default_rng(0).random(200_000)
    start = time.perf_counter()
    total = 0
    for i in range(40_000):
        total += i * i % 7
    counts: Dict[int, int] = {}
    for i in range(15_000):
        counts[i % 977] = counts.get(i % 977, 0) + 1
    numpy.sort(_REFERENCE_ARRAY)
    return time.perf_counter() - start


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` at nominal host speed, from the reference slices timed
    right before and right after the call."""
    return seconds * NOMINAL_REFERENCE_S / ((before + after) / 2.0)


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set (``VmHWM``) of ``pid``, or of this process."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# -- answers --------------------------------------------------------------------


def pair_key(pairs) -> Tuple[Tuple[str, str, str], ...]:
    """Byte-comparable form of a pair list: string ids and ``float.hex``.

    Accepts :class:`~repro.core.query.UserPair` objects or the
    ``[user_a, user_b, score]`` triples of a server response.
    """
    out = []
    for p in pairs:
        if isinstance(p, (list, tuple)):
            a, b, score = p
        else:
            a, b, score = p.user_a, p.user_b, p.score
        out.append((str(a), str(b), float(score).hex()))
    return tuple(out)


def neighbour_key(neighbours) -> Tuple[Tuple[str, str], ...]:
    return tuple((str(u), float(s).hex()) for u, s in neighbours)


def first(result):
    """The pairs of an API result that may carry telemetry or EXPLAIN."""
    return result[0] if isinstance(result, tuple) else result


# -- provenance -----------------------------------------------------------------


def host_stamp(seed: int) -> Dict[str, object]:
    import numpy

    sha = None
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=False,
        ).stdout.strip() or None
    except OSError:
        pass
    return {
        "seed": seed,
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "time": time.time(),
    }


# -- results ----------------------------------------------------------------------


class Result:
    """Accumulates one run's outcome and prints the final JSON line."""

    def __init__(self, workload: str, seed: int, trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.attempted = 0
        self.failed = 0
        self.mismatches: List[str] = []
        self.metrics: Dict[str, Tuple[float, str]] = {}
        self.report: Dict[str, object] = {}

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def note(self, name: str, value) -> None:
        """A fact about the run that is not a metric, printed and kept."""
        self.report.setdefault("notes", {})[name] = value

    def mismatch(self, what: str) -> None:
        self.mismatches.append(what)

    @property
    def correct(self) -> bool:
        return not self.mismatches

    def emit(self, stream=sys.stdout) -> None:
        """Human summary lines, the report file, then the JSON line last."""
        for name, (value, unit) in self.metrics.items():
            print(f"{name} = {value:.6g} {unit}", file=stream)
        for name, value in self.report.get("notes", {}).items():
            print(f"note: {name} = {value}", file=stream)
        for what in self.mismatches[:20]:
            print(f"MISMATCH {what}", file=stream)
        self.report.update(
            workload=self.workload,
            trace=self.trace,
            attempted=self.attempted,
            failed=self.failed,
            mismatches=self.mismatches,
            metrics={k: {"value": v, "unit": u} for k, (v, u) in self.metrics.items()},
        )
        WORK.mkdir(exist_ok=True)
        path = WORK / f"report-{self.workload}-seed{self.seed}-trace{int(self.trace)}.json"
        path.write_text(json.dumps(self.report, indent=1, default=str) + "\n")
        print(f"report: {path.relative_to(ROOT)}", file=stream)
        line = {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                k: {"value": v, "unit": u} for k, (v, u) in self.metrics.items()
            },
        }
        print(json.dumps(line), file=stream, flush=True)


def timed(fn, *args, **kwargs):
    """``(seconds, result)`` of one call."""
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    return time.perf_counter() - start, out
