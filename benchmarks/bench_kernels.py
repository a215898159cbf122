"""Numpy vs Python kernel backends on the sequential join hot path.

Times S-PPJ-C and S-PPJ-B — the two algorithms whose whole partner rows
the fused batch kernel of :mod:`repro.core.kernels` evaluates — with
``kernel="numpy"`` against ``kernel="python"`` on the same grown
workload ``bench_parallel_speedup.py`` uses, and verifies the two
backends are interchangeable where it counts:

* the result lists must be byte-identical (user pairs *and* the float
  scores, compared via ``float.hex`` so not even a last-bit drift
  passes);
* the deterministic work counters
  (:meth:`repro.obs.Telemetry.work_counters`) must match exactly — the
  vectorized filters are the same admissible filters, so both backends
  prune the same pairs at the same stages ("zero counter drift", the
  same invariant ``repro obs diff`` gates on).

It also times *observed* (telemetry-on) S-PPJ-F, TOPK-S-PPJ-P and
S-PPJ-D on both backends.  With a metrics registry active every backend
runs the scalar counted kernels, so the default numpy kernel must cost
what python costs; ``results.observed_ratio_<algo>`` is numpy / python
over interleaved medians.

Last, it times S-PPJ-D and TOPK-S-PPJ-D on a fresh
:class:`~repro.stindex.leaf_index.STLeafIndex` (the first ask, which
fills the index's clip-pack cache) against a reused one (a repeat ask),
over interleaved medians: ``results.leaf_warm_speedup_<algo>`` is first
/ repeat, advisory only.  The two must agree byte for byte
(``results.leaf_identical_<algo>``) with zero work-counter drift
(``results.leaf_counter_drift_<algo>``).

The direct run writes ``BENCH_kernels.json``; CI's perf-smoke job gates
``results.speedup_sppj_c`` and ``results.speedup_sppj_b`` at >= 1.5,
the parity flags (``leaf_identical_*`` among them) at 1.0, the observed
ratios at <= 1.25 and the leaf counter drift at 0 via
``scripts/check_bench_regression.py``.

Run under pytest (``pytest benchmarks/bench_kernels.py
--benchmark-only``) for harness timings, or directly (``python
benchmarks/bench_kernels.py [--users N]``) for the table + JSON.
"""

import argparse
import os
import statistics
import sys
import time

import pytest

from repro import Telemetry, stps_join, topk_stps_join
from repro.bench.reporting import write_bench_json
from repro.core.kernels import numpy_available
from repro.stindex.leaf_index import STLeafIndex

from _common import REPO_ROOT, dataset_for, thresholds_for

PRESET = "twitter"
#: The grown speedup workload (matches bench_parallel_speedup.py).
MAIN_USERS = 400
#: Counter-parity workload: telemetry runs use the counted scalar-shape
#: kernels, which are slower than the fused batch tier, so parity is
#: checked at the legacy size.
PARITY_USERS = 150
ALGORITHMS = ("s-ppj-c", "s-ppj-b")

#: The acceptance floor CI enforces via --min-result.
MIN_SPEEDUP = 1.5

#: Observed-mode shapes timed on both backends (at PARITY_USERS).
OBSERVED_ALGORITHMS = ("s-ppj-f", "topk-s-ppj-p", "s-ppj-d")
OBSERVED_K = 10
#: Interleaved rounds per observed shape (the order alternates).
OBSERVED_ROUNDS = 7
#: The ceiling CI enforces via --max-result on observed_ratio_*.
MAX_OBSERVED_RATIO = 1.25

#: Leaf-index shapes asked on a fresh and on a reused index (at
#: PARITY_USERS), and the interleaved rounds per shape.
LEAF_ALGORITHMS = ("s-ppj-d", "topk-s-ppj-d")
LEAF_ROUNDS = 5

numpy_missing = not numpy_available()


def _thresholds():
    return thresholds_for(PRESET)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("kernel", ["python", "numpy"])
def test_kernel_backend(run_once, algorithm, kernel):
    if kernel == "numpy" and numpy_missing:
        pytest.skip("numpy unavailable")
    dataset = dataset_for(PRESET, PARITY_USERS)
    eps_loc, eps_doc, eps_user = _thresholds()
    result = run_once(
        stps_join, dataset, eps_loc, eps_doc, eps_user,
        algorithm=algorithm, kernel=kernel,
    )
    assert isinstance(result, list)


def _identical(a, b) -> bool:
    """Byte-level equality: pair identity and exact float scores."""
    if len(a) != len(b):
        return False
    return all(
        pa.user_a == pb.user_a
        and pa.user_b == pb.user_b
        and pa.score.hex() == pb.score.hex()
        for pa, pb in zip(a, b)
    )


def _work_counters(dataset, algorithm, kernel):
    eps_loc, eps_doc, eps_user = _thresholds()
    tele = Telemetry()
    stps_join(
        dataset, eps_loc, eps_doc, eps_user,
        algorithm=algorithm, kernel=kernel, telemetry=tele,
    )
    return tele.work_counters()


def _observed_seconds(dataset, algorithm, kernel):
    """Wall-clock of one telemetry-on call (index build included)."""
    eps_loc, eps_doc, eps_user = _thresholds()
    kwargs = {"algorithm": algorithm, "kernel": kernel, "telemetry": Telemetry()}
    start = time.perf_counter()
    if algorithm.startswith("topk-"):
        topk_stps_join(dataset, eps_loc, eps_doc, OBSERVED_K, **kwargs)
    else:
        stps_join(dataset, eps_loc, eps_doc, eps_user, **kwargs)
    return time.perf_counter() - start


def _observed_medians(dataset, algorithm):
    """Median observed seconds per backend, rounds alternating order."""
    times = {"numpy": [], "python": []}
    for r in range(OBSERVED_ROUNDS):
        order = ("numpy", "python") if r % 2 == 0 else ("python", "numpy")
        for kernel in order:
            times[kernel].append(_observed_seconds(dataset, algorithm, kernel))
    return {kernel: statistics.median(ts) for kernel, ts in times.items()}


def _leaf_ask(dataset, algorithm, index, telemetry=None):
    """(seconds, pairs) of one ask on a leaf index."""
    eps_loc, eps_doc, eps_user = _thresholds()
    kwargs = {"algorithm": algorithm, "index": index, "telemetry": telemetry}
    start = time.perf_counter()
    if algorithm.startswith("topk-"):
        pairs = topk_stps_join(dataset, eps_loc, eps_doc, OBSERVED_K, **kwargs)
    else:
        pairs = stps_join(dataset, eps_loc, eps_doc, eps_user, **kwargs)
    return time.perf_counter() - start, pairs


def _leaf_cache_run(dataset, algorithm):
    """First asks (fresh index) vs repeat asks (one reused index).

    Returns the median seconds of each, whether every answer matched
    byte for byte, and the work counters that differ between a
    telemetry-on ask on a fresh index and one on the reused index.
    """
    eps_loc = _thresholds()[0]
    reused = STLeafIndex(dataset, eps_loc)
    _, expected = _leaf_ask(dataset, algorithm, reused)
    times = {"first": [], "repeat": []}
    identical = True
    for r in range(LEAF_ROUNDS):
        order = ("first", "repeat") if r % 2 == 0 else ("repeat", "first")
        for ask in order:
            index = reused if ask == "repeat" else STLeafIndex(dataset, eps_loc)
            seconds, pairs = _leaf_ask(dataset, algorithm, index)
            times[ask].append(seconds)
            identical = identical and _identical(pairs, expected)
    counters = {}
    for ask in ("first", "repeat"):
        index = reused if ask == "repeat" else STLeafIndex(dataset, eps_loc)
        tele = Telemetry()
        _leaf_ask(dataset, algorithm, index, telemetry=tele)
        counters[ask] = tele.work_counters()
    drift = sorted(
        key for key in set(counters["first"]) | set(counters["repeat"])
        if counters["first"].get(key) != counters["repeat"].get(key)
    )
    medians = {ask: statistics.median(ts) for ask, ts in times.items()}
    return medians, identical, drift


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        description="numpy vs python kernel backend benchmark"
    )
    parser.add_argument(
        "--users",
        type=int,
        default=MAIN_USERS,
        help="users in the timed workload (default: %(default)s)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if numpy_missing:
        print("numpy unavailable; nothing to compare")
        return 0
    dataset = dataset_for(PRESET, args.users)
    parity_dataset = dataset_for(PRESET, PARITY_USERS)
    eps_loc, eps_doc, eps_user = _thresholds()
    cpus = os.cpu_count() or 1
    print(
        f"kernel backends on {PRESET} ({args.users} users, "
        f"{dataset.num_objects} objects), {cpus} CPUs"
    )

    phases = {}
    results = {}
    failures = []
    for algorithm in ALGORITHMS:
        runs = {}
        for kernel in ("python", "numpy"):
            start = time.perf_counter()
            runs[kernel] = stps_join(
                dataset, eps_loc, eps_doc, eps_user,
                algorithm=algorithm, kernel=kernel,
            )
            phases[f"{algorithm.replace('-', '_')}_{kernel}"] = (
                time.perf_counter() - start
            )
        key = algorithm.replace("-", "_").replace("s_ppj", "sppj")
        python_s = phases[f"{algorithm.replace('-', '_')}_python"]
        numpy_s = phases[f"{algorithm.replace('-', '_')}_numpy"]
        speedup = python_s / numpy_s
        results[f"speedup_{key}"] = speedup
        identical = _identical(runs["python"], runs["numpy"])
        results[f"identical_{key}"] = 1.0 if identical else 0.0
        print(
            f"  {algorithm}: python {python_s:8.3f}s  numpy {numpy_s:8.3f}s  "
            f"speedup {speedup:4.2f}x  results "
            f"{'identical' if identical else 'DIVERGED'}"
        )
        if not identical:
            failures.append(f"{algorithm}: numpy results diverged from python")
        if speedup < MIN_SPEEDUP:
            failures.append(
                f"{algorithm}: speedup {speedup:.2f}x below {MIN_SPEEDUP}x"
            )

    # Counter parity: both backends must report the identical funnel —
    # the exact invariant `repro obs diff` gates on across runs.
    parity_counters = None
    for algorithm in ALGORITHMS:
        base = _work_counters(parity_dataset, algorithm, "python")
        fresh = _work_counters(parity_dataset, algorithm, "numpy")
        drift = sorted(
            key for key in set(base) | set(fresh)
            if base.get(key) != fresh.get(key)
        )
        key = algorithm.replace("-", "_").replace("s_ppj", "sppj")
        results[f"counter_drift_{key}"] = float(len(drift))
        if drift:
            failures.append(
                f"{algorithm}: work counters drifted between backends "
                f"({', '.join(drift)})"
            )
            print(f"  {algorithm}: counter DRIFT: {drift}")
        else:
            print(
                f"  {algorithm}: {len(base)} work counters identical "
                f"across backends ({PARITY_USERS} users)"
            )
        if algorithm == ALGORITHMS[0]:
            parity_counters = base

    # Observed mode: both backends run the scalar counted kernels, so
    # the default kernel must not make telemetry/EXPLAIN slower.
    for algorithm in OBSERVED_ALGORITHMS:
        medians = _observed_medians(parity_dataset, algorithm)
        name = algorithm.replace("-", "_")
        key = name.replace("s_ppj", "sppj")
        for kernel, seconds in medians.items():
            phases[f"observed_{name}_{kernel}"] = seconds
        ratio = medians["numpy"] / medians["python"]
        results[f"observed_ratio_{key}"] = ratio
        print(
            f"  observed {algorithm}: python {medians['python']:8.3f}s  "
            f"numpy {medians['numpy']:8.3f}s  ratio {ratio:4.2f}"
        )
        if ratio > MAX_OBSERVED_RATIO:
            failures.append(
                f"observed {algorithm}: numpy/python {ratio:.2f} above "
                f"{MAX_OBSERVED_RATIO}"
            )

    # Leaf-index caches: a reused index must answer exactly like a
    # fresh one; how much faster it is stays advisory.
    for algorithm in LEAF_ALGORITHMS:
        medians, identical, drift = _leaf_cache_run(parity_dataset, algorithm)
        name = algorithm.replace("-", "_")
        key = name.replace("s_ppj", "sppj")
        for ask, seconds in medians.items():
            phases[f"leaf_{name}_{ask}"] = seconds
        speedup = medians["first"] / medians["repeat"]
        results[f"leaf_warm_speedup_{key}"] = speedup
        results[f"leaf_identical_{key}"] = 1.0 if identical else 0.0
        results[f"leaf_counter_drift_{key}"] = float(len(drift))
        print(
            f"  leaf {algorithm}: first {medians['first']:8.3f}s  "
            f"repeat {medians['repeat']:8.3f}s  speedup {speedup:4.2f}x  "
            f"results {'identical' if identical else 'DIVERGED'}"
        )
        if not identical:
            failures.append(f"{algorithm}: reused leaf index changed results")
        if drift:
            failures.append(
                f"{algorithm}: work counters drifted on a reused leaf index "
                f"({', '.join(drift)})"
            )

    path = write_bench_json(
        "kernels",
        config={
            "preset": PRESET,
            "num_users": args.users,
            "parity_num_users": PARITY_USERS,
            "algorithms": list(ALGORITHMS),
            "observed_algorithms": list(OBSERVED_ALGORITHMS),
            "observed_k": OBSERVED_K,
            "leaf_algorithms": list(LEAF_ALGORITHMS),
            "cpus": cpus,
        },
        phases=phases,
        results=results,
        counters=parity_counters,
        directory=REPO_ROOT,
    )
    print(f"wrote {path}")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print("OK: numpy kernels byte-identical, zero counter drift, "
          f">= {MIN_SPEEDUP}x on both algorithms, observed ratios "
          f"<= {MAX_OBSERVED_RATIO}, reused leaf indexes byte-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
