"""Public facade: evaluate (top-k) STPSJoin queries by algorithm name.

This is the entry point downstream code should use::

    from repro import STDataset, stps_join, topk_stps_join

    dataset = STDataset.from_records(records)
    pairs = stps_join(dataset, eps_loc=0.001, eps_doc=0.4, eps_user=0.4)
    best = topk_stps_join(dataset, eps_loc=0.001, eps_doc=0.4, k=10)

Results are :class:`~repro.core.query.UserPair` lists; threshold queries
return pairs sorted by descending score, top-k queries return exactly the
k best (fewer when fewer positive pairs exist).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from . import kernels as _kernels
from .model import STDataset
from .naive import naive_stps_join, naive_topk_stps_join
from .pair_eval import PairEvalStats
from .query import STPSJoinQuery, TopKQuery, UserPair, pair_sort_key
from .sppj_b import sppj_b
from .sppj_c import sppj_c
from .sppj_d import sppj_d
from .sppj_f import sppj_f
from .topk import topk_sppj_f, topk_sppj_p, topk_sppj_s
from .topk_d import topk_sppj_d

__all__ = [
    "JOIN_ALGORITHMS",
    "TOPK_ALGORITHMS",
    "stps_join",
    "topk_stps_join",
]

#: Threshold-join algorithms by name.  "s-ppj-f" is the paper's best.
#: All accept ``kernel=`` (the vectorized-kernel backend selector, see
#: ``docs/performance.md``); only S-PPJ-C/B have a batch tier to select.
JOIN_ALGORITHMS: Dict[str, Callable[..., List[UserPair]]] = {
    "naive": lambda ds, q, stats=None, kernel=None, **kw: naive_stps_join(ds, q),
    "s-ppj-c": lambda ds, q, stats=None, **kw: sppj_c(ds, q, stats=stats, **kw),
    "s-ppj-b": lambda ds, q, stats=None, **kw: sppj_b(ds, q, stats=stats, **kw),
    "s-ppj-f": lambda ds, q, stats=None, kernel=None, **kw: sppj_f(
        ds, q, stats=stats, **kw
    ),
    "s-ppj-d": lambda ds, q, stats=None, kernel=None, **kw: sppj_d(
        ds, q, stats=stats, **kw
    ),
}

#: Top-k algorithms by name.  "topk-s-ppj-p" wins on most datasets;
#: "topk-s-ppj-d" is the leaf-partitioned variant the paper sketches.
TOPK_ALGORITHMS: Dict[str, Callable[..., List[UserPair]]] = {
    "naive": lambda ds, q, stats=None: naive_topk_stps_join(ds, q),
    "topk-s-ppj-f": topk_sppj_f,
    "topk-s-ppj-s": topk_sppj_s,
    "topk-s-ppj-p": topk_sppj_p,
    "topk-s-ppj-d": topk_sppj_d,
}


def _make_executor(
    workers: Optional[int],
    backend: Optional[str],
    start_method: Optional[str],
    chunk_size: Optional[int],
    policy=None,
):
    """Build a :class:`repro.exec.JoinExecutor` for the parallel path.

    Imported lazily: :mod:`repro.exec` depends on the algorithm modules
    this facade re-exports, so a module-level import would be circular.
    A policy without ``workers``/``backend`` runs on the sequential
    backend — resilience does not imply parallelism.
    """
    from ..exec import JoinExecutor

    if backend is None:
        backend = "process" if workers is not None else "sequential"
    return JoinExecutor(
        workers=workers,
        backend=backend,
        start_method=start_method,
        chunk_size=chunk_size,
        policy=policy,
    )


def _resolve_telemetry(telemetry, with_telemetry: bool):
    """Normalize the two telemetry kwargs to ``(telemetry, append_it)``.

    ``with_telemetry=True`` without an explicit object constructs one so
    the caller can receive it back in the return tuple.
    """
    if with_telemetry and telemetry is None:
        from ..obs import Telemetry

        telemetry = Telemetry()
    return telemetry, bool(with_telemetry)


def _attach_telemetry(result, telemetry, with_telemetry: bool):
    """Append ``telemetry`` to the engine's return value when requested."""
    if not with_telemetry:
        return result
    if isinstance(result, tuple):
        return (*result, telemetry)
    return result, telemetry


def _attach_explain(result, explain_report):
    """Append the :class:`~repro.obs.ExplainReport` (always last)."""
    if isinstance(result, tuple):
        return (*result, explain_report)
    return result, explain_report


def stps_join(
    dataset: STDataset,
    eps_loc: float,
    eps_doc: float,
    eps_user: float,
    algorithm: str = "s-ppj-f",
    stats: Optional[PairEvalStats] = None,
    workers: Optional[int] = None,
    backend: Optional[str] = None,
    start_method: Optional[str] = None,
    chunk_size: Optional[int] = None,
    policy=None,
    with_report: bool = False,
    telemetry=None,
    with_telemetry: bool = False,
    explain: bool = False,
    **kwargs,
):
    """Evaluate an STPSJoin query (Definition 1).

    Parameters
    ----------
    eps_loc:
        Spatial distance threshold (same units as the coordinates).
    eps_doc:
        Jaccard keyword-similarity threshold in (0, 1].
    eps_user:
        Point-set similarity threshold in (0, 1].
    algorithm:
        One of :data:`JOIN_ALGORITHMS`; ``"s-ppj-d"`` additionally accepts
        ``fanout=`` and ``index=``.
    stats:
        Optional :class:`PairEvalStats` to collect work counters.
    workers / backend / start_method / chunk_size:
        Passing ``workers`` (or ``backend``) routes evaluation through the
        parallel execution engine (:class:`repro.exec.JoinExecutor`);
        results are byte-identical to the sequential path.  ``backend``
        defaults to ``"process"``; see the executor for the remaining
        parameters.
    policy:
        Optional :class:`repro.exec.ExecutionPolicy` (deadline, retries,
        graceful degradation — see ``docs/robustness.md``).  A policy
        alone routes through the engine on the sequential backend.
    with_report:
        Return ``(pairs, report)`` with the run's
        :class:`repro.exec.ExecutionReport` instead of just the pairs.
        Also routes through the engine.
    telemetry / with_telemetry:
        ``telemetry=`` accepts a :class:`repro.obs.Telemetry` to record
        metrics and trace spans into; ``with_telemetry=True`` constructs
        one and appends it to the return value (after the report when
        ``with_report`` is also set).  Either routes through the engine;
        see ``docs/observability.md``.
    explain:
        Build an :class:`repro.obs.ExplainReport` (filter funnel, phase
        attribution, chunk stats — the EXPLAIN section of
        ``docs/observability.md``) from the run and append it to the
        return value, always last.  Implies routing through the engine
        and constructs an internal ``Telemetry`` when none was given.
    index:
        (keyword-only, via ``**kwargs``) A pre-built warm index to reuse
        instead of rebuilding per call — an
        :class:`~repro.stindex.stgrid.STGridIndex` for the grid
        algorithms or an :class:`~repro.stindex.leaf_index.STLeafIndex`
        for ``"s-ppj-d"``.  Must match the query's ``eps_loc`` (and for
        the token-probing algorithms carry token lists); routes through
        the engine, which validates it.  This is the prepared-dataset
        entry point the resident join server (``docs/serving.md``) is
        built on — results are byte-identical to a cold call.
    kernel:
        (keyword-only, via ``**kwargs``) Kernel backend selector:
        ``"auto"`` (default; numpy when importable), ``"numpy"`` or
        ``"python"`` — see the vectorization section of
        ``docs/performance.md``.  Overrides the ``REPRO_KERNEL``
        environment variable.  Results and deterministic work counters
        are byte-identical across backends; the resolved choice is
        recorded on the :class:`~repro.exec.ExecutionReport` and in
        EXPLAIN artifacts.
    """
    # Validate the backend selection up front: a bogus kernel= or
    # REPRO_KERNEL must fail loudly on every algorithm and path, not
    # only on the ones that dispatch on it.
    _kernels.resolve_kernel(kwargs.get("kernel"))
    query = STPSJoinQuery(eps_loc=eps_loc, eps_doc=eps_doc, eps_user=eps_user)
    telemetry, with_telemetry = _resolve_telemetry(telemetry, with_telemetry)
    if explain and telemetry is None:
        from ..obs import Telemetry

        telemetry = Telemetry()
    if (
        workers is not None
        or backend is not None
        or policy is not None
        or telemetry is not None
        or with_report
        or kwargs.get("index") is not None
    ):
        executor = _make_executor(
            workers, backend, start_method, chunk_size, policy
        )
        result = executor.join(
            dataset,
            query,
            algorithm=algorithm,
            stats=stats,
            with_report=with_report or explain,
            telemetry=telemetry,
            **kwargs,
        )
        explain_report = None
        if explain:
            from ..obs import build_explain

            pairs, report = result
            explain_report = build_explain(telemetry, report, dataset=dataset)
            result = (pairs, report) if with_report else pairs
        result = _attach_telemetry(result, telemetry, with_telemetry)
        if explain:
            result = _attach_explain(result, explain_report)
        return result
    try:
        run = JOIN_ALGORITHMS[algorithm]
    except KeyError:
        raise ValueError(
            f"unknown algorithm {algorithm!r}; "
            f"choose from {sorted(JOIN_ALGORITHMS)}"
        ) from None
    pairs = run(dataset, query, stats=stats, **kwargs)
    return sorted(pairs, key=pair_sort_key)


def topk_stps_join(
    dataset: STDataset,
    eps_loc: float,
    eps_doc: float,
    k: int,
    algorithm: str = "topk-s-ppj-p",
    stats: Optional[PairEvalStats] = None,
    workers: Optional[int] = None,
    backend: Optional[str] = None,
    start_method: Optional[str] = None,
    chunk_size: Optional[int] = None,
    policy=None,
    with_report: bool = False,
    telemetry=None,
    with_telemetry: bool = False,
    explain: bool = False,
    **kwargs,
):
    """Evaluate a top-k STPSJoin query (Definition 2).

    ``workers`` / ``backend`` route evaluation through the parallel
    execution engine, exactly as in :func:`stps_join`; the returned k
    best pairs are byte-identical to the sequential algorithms (ties are
    broken canonically everywhere).  ``policy``, ``with_report``,
    ``telemetry``, ``with_telemetry``, ``explain`` and ``index`` (a
    pre-built warm index, which also routes through the engine) behave
    as in :func:`stps_join`; ``"topk-s-ppj-d"`` additionally accepts
    ``fanout=`` on the engine path, and ``kernel=`` selects the kernel
    backend exactly as in :func:`stps_join`.
    """
    _kernels.resolve_kernel(kwargs.get("kernel"))
    query = TopKQuery(eps_loc=eps_loc, eps_doc=eps_doc, k=k)
    telemetry, with_telemetry = _resolve_telemetry(telemetry, with_telemetry)
    if explain and telemetry is None:
        from ..obs import Telemetry

        telemetry = Telemetry()
    if (
        workers is not None
        or backend is not None
        or policy is not None
        or telemetry is not None
        or with_report
        or kwargs
    ):
        executor = _make_executor(
            workers, backend, start_method, chunk_size, policy
        )
        result = executor.topk(
            dataset, query, algorithm=algorithm, stats=stats,
            with_report=with_report or explain, telemetry=telemetry,
            **{k_: v for k_, v in kwargs.items() if v is not None},
        )
        explain_report = None
        if explain:
            from ..obs import build_explain

            pairs, report = result
            explain_report = build_explain(telemetry, report, dataset=dataset)
            result = (pairs, report) if with_report else pairs
        result = _attach_telemetry(result, telemetry, with_telemetry)
        if explain:
            result = _attach_explain(result, explain_report)
        return result
    try:
        run = TOPK_ALGORITHMS[algorithm]
    except KeyError:
        raise ValueError(
            f"unknown algorithm {algorithm!r}; "
            f"choose from {sorted(TOPK_ALGORITHMS)}"
        ) from None
    return run(dataset, query, stats=stats)
