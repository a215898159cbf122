"""The in-process workloads: ``api-batch`` and ``api-observed``.

One caller, closed loop, on warm indexes.  The seed fixes a list of
distinct queries (one per shape below, thresholds jittered around the
per-preset defaults) and the order in which each pass asks them; every
pass asks every query once.  The library has no result cache, so a
repeat ask recomputes on indexes whose lazy caches the first ask filled:
``hit_p50_s`` is the median latency of those repeat asks.  Every timing
is scaled to nominal host speed by the reference slices timed around it
(see :func:`perfbench.common.scaled`).

Answers are checked after the timed window: every query against a
different algorithm's answer to it, every repeat ask against the first,
and a small sample of users against the naive oracle.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from . import inputs
from .common import (
    Result,
    first,
    median,
    neighbour_key,
    pair_key,
    peak_rss_mb,
    reference_seconds,
    scaled,
    tail,
    timed,
)
from .tracing import OFF


@dataclass(frozen=True)
class Shape:
    preset: str  # a corpus key: a preset name, maybe with a ".N" suffix
    kind: str  # "join", "topk" or "knn"
    algorithm: str
    mode: str = "plain"  # "plain", "telemetry", "explain" or "stats" (knn)
    k: int = 0
    workers: Optional[int] = None


def _shapes(spec: List[Tuple[int, Shape]]) -> Tuple[Shape, ...]:
    return tuple(shape for count, shape in spec for _ in range(count))


F, B, C, D = "s-ppj-f", "s-ppj-b", "s-ppj-c", "s-ppj-d"
TP, TD = "topk-s-ppj-p", "topk-s-ppj-d"
#: knn on the warm grid index, and on the cold path that builds its own.
KNN, KNN_COLD = "knn", "knn-cold"

#: Per workload: corpora (preset -> users), shapes of one pass, and how
#: long one pass takes on a 2-CPU host (sizes the pass count).  The
#: counts of all queries, of joins and of top-k queries are odd, so each
#: median is the middle ask of one query rather than the midpoint of the
#: gap between two queries of different cost.
WORKLOADS = {
    "api-batch": {
        "corpora": {"twitter": 400, "flickr": 300, "geotext": 400},
        "pass_seconds": 6.6,
        "shapes": _shapes([
            (3, Shape("twitter", "join", F)),
            (4, Shape("geotext", "join", F)),
            (1, Shape("twitter", "join", F, workers=2)),
            (1, Shape("flickr", "join", B)),
            (1, Shape("flickr", "join", C)),
            (2, Shape("geotext", "topk", TP, k=10)),
            (1, Shape("geotext", "topk", TP, k=50)),
            (1, Shape("geotext", "join", D)),
            (1, Shape("twitter", "knn", KNN, k=10)),
        ]),
    },
    "api-observed": {
        # Two corpora each of Twitter and GeoText, so the observed S-PPJ-F
        # and top-k medians average over two draws of the data.
        "corpora": {"twitter": 400, "twitter.2": 400, "flickr": 100,
                    "geotext": 400, "geotext.2": 400},
        "pass_seconds": 10.5,
        "shapes": _shapes([
            (2, Shape("twitter", "join", F, "telemetry")),
            (2, Shape("twitter", "join", F, "explain")),
            (2, Shape("twitter.2", "join", F, "telemetry")),
            (1, Shape("twitter.2", "join", F, "explain")),
            (1, Shape("geotext", "join", F, "telemetry")),
            (1, Shape("geotext", "join", F, "telemetry", workers=2)),
            (1, Shape("geotext.2", "join", F, "explain")),
            (1, Shape("geotext", "topk", TP, "explain", k=10)),
            (1, Shape("geotext", "topk", TP, "telemetry", k=10)),
            (1, Shape("geotext.2", "topk", TP, "explain", k=10)),
            (1, Shape("flickr", "join", B, "telemetry")),
            (1, Shape("flickr", "join", C, "explain")),
            (1, Shape("flickr", "join", D, "telemetry")),
            (1, Shape("twitter", "knn", KNN, "stats", k=10)),
        ]),
    },
}

#: The algorithm whose answer each algorithm's answer is compared with.
ALTERNATE = {F: B, B: C, C: F, D: F, TP: "topk-s-ppj-s", TD: TP, KNN: KNN_COLD}

#: Users in each corpus sample checked against the naive oracle.
NAIVE_USERS = 40


@dataclass
class Query:
    qid: str
    shape: Shape
    eps_loc: float
    eps_doc: float
    third: float  # eps_user for joins, k for top-k


def make_queries(workload: str, seed: int) -> List[Query]:
    """One query per shape.  Equal shapes form a group whose eps_loc
    cycles through the preset's three values (base first) and whose
    eps_doc/eps_user are jittered by stratified factors."""
    rng = random.Random(f"{workload}/{seed}/queries")
    shapes = WORKLOADS[workload]["shapes"]
    factors = {}
    for shape in dict.fromkeys(shapes):
        n = shapes.count(shape)
        factors[shape] = list(zip(inputs.stratified(rng, n), inputs.stratified(rng, n)))
    seen: Dict[Shape, int] = {}
    out = []
    for i, shape in enumerate(shapes):
        j = seen[shape] = seen.get(shape, -1) + 1
        locs = inputs.eps_locs(shape.preset)
        loc = locs[(j + 1) % len(locs)]
        _, doc, user = inputs.PRESETS[inputs.preset_of(shape.preset)].thresholds
        f_doc, f_user = factors[shape][j]
        third = user * f_user if shape.kind == "join" else shape.k
        out.append(Query(f"q{i:02d}", shape, loc, doc * f_doc, third))
    return out


def pass_orders(workload: str, seed: int, queries: List[Query], seconds: int):
    """The ask order of every pass; the pass count follows ``seconds``."""
    passes = max(2, round(seconds / WORKLOADS[workload]["pass_seconds"]))
    rng = random.Random(f"{workload}/{seed}/order")
    orders = []
    for _ in range(passes):
        order = list(queries)
        rng.shuffle(order)
        orders.append(order)
    return orders


# -- the program side --------------------------------------------------------------


class Prepared:
    """Datasets and warm indexes, built from records by the program."""

    def __init__(self, repro, records: Dict[str, list], queries: List[Query], tracer=OFF):
        from repro.core import kernels
        from repro.stindex.leaf_index import STLeafIndex
        from repro.stindex.stgrid import STGridIndex

        self.repro = repro
        self.datasets = {}
        self.grids = {}
        self.leaves = {}
        for preset, recs in records.items():
            with tracer.span("STDataset.from_records", "datasets"):
                ds = self.datasets[preset] = repro.STDataset.from_records(recs)
            for loc in inputs.eps_locs(preset):
                with tracer.span("STGridIndex.build", "stindex"):
                    grid = STGridIndex(ds.bounds, loc, with_tokens=True)
                    for user in ds.users:
                        grid.add_user(user, ds.user_objects(user))
                self.grids[preset, loc] = grid
                with tracer.span("batch_kernel_for", "core.kernels"):
                    kernels.batch_kernel_for(grid, ds.users)
        for preset in sorted({q.shape.preset for q in queries if q.shape.algorithm in (D, TD)}):
            for loc in inputs.eps_locs(preset):
                with tracer.span("STLeafIndex", "stindex"):
                    self.leaves[preset, loc] = STLeafIndex(self.datasets[preset], loc)
        # The knn probe: the user at the 90th percentile of object count.
        # Object counts per user are the same for every seed.
        self.knn_user = {}
        for preset in sorted({q.shape.preset for q in queries if q.shape.kind == "knn"}):
            ds = self.datasets[preset]
            ranked = sorted(ds.users, key=lambda u: (len(ds.user_objects(u)), u))
            self.knn_user[preset] = ranked[int(0.9 * len(ranked))]

    def index_for(self, preset: str, loc: float, algorithm: str):
        if algorithm in (D, TD):
            return self.leaves[preset, loc]
        return self.grids[preset, loc]

    def ask(self, q: Query, algorithm: Optional[str] = None, mode: Optional[str] = None,
            workers: Optional[int] = None):
        """Evaluate ``q`` (optionally with another algorithm or mode)."""
        repro = self.repro
        shape = q.shape
        algorithm = algorithm or shape.algorithm
        mode = shape.mode if mode is None else mode
        ds = self.datasets[shape.preset]
        if shape.kind == "knn":
            from repro.core.knn import similar_users

            index = None if algorithm == KNN_COLD else self.grids[shape.preset, q.eps_loc]
            stats = repro.PairEvalStats() if mode == "stats" else None
            return neighbour_key(similar_users(
                ds, self.knn_user[shape.preset], q.eps_loc, q.eps_doc, int(q.third),
                stats=stats, index=index,
            ))
        kwargs = {}
        if algorithm not in ("topk-s-ppj-s", "naive"):
            kwargs["index"] = self.index_for(shape.preset, q.eps_loc, algorithm)
        if workers:
            kwargs.update(workers=workers, backend="process")
        if mode == "telemetry":
            kwargs["telemetry"] = repro.Telemetry()
        elif mode == "explain":
            kwargs["explain"] = True
        if shape.kind == "join":
            result = repro.stps_join(
                ds, q.eps_loc, q.eps_doc, q.third, algorithm=algorithm, **kwargs
            )
        else:
            result = repro.topk_stps_join(
                ds, q.eps_loc, q.eps_doc, int(q.third), algorithm=algorithm, **kwargs
            )
        return pair_key(first(result))


def layer_of(shape: Shape) -> str:
    """The layer a query's call lands in, as seen from outside."""
    if shape.kind == "knn":
        return "core"
    return "exec" if shape.mode == "plain" else "obs"


def run_sequence(prepared: Prepared, orders, tracer=OFF, reference: bool = False):
    """Ask every pass; returns per-ask records and the wall time.

    With ``reference`` the reference slice is timed before every ask and
    after the last, and each record also holds its time ``scaled`` to
    nominal host speed.
    """
    asks = []
    refs = []
    start = time.perf_counter()
    for p, order in enumerate(orders):
        for q in order:
            if reference:
                refs.append(reference_seconds())
            request = f"p{p}/{q.qid}"
            with tracer.span("request", None, request):
                t0 = time.perf_counter()
                try:
                    with tracer.span(
                        f"{q.shape.kind}:{q.shape.algorithm}:{q.shape.mode}",
                        layer_of(q.shape),
                    ):
                        answer = prepared.ask(q, workers=q.shape.workers)
                    error = None
                except Exception as exc:  # a failed query is counted, not fatal
                    answer, error = None, f"{type(exc).__name__}: {exc}"
                asks.append({
                    "pass": p, "query": q, "seconds": time.perf_counter() - t0,
                    "answer": answer, "error": error,
                })
    if reference:
        refs.append(reference_seconds())
        for i, ask in enumerate(asks):
            ask["scaled"] = scaled(ask["seconds"], refs[i], refs[i + 1])
    return asks, time.perf_counter() - start


def check(prepared: Prepared, queries: List[Query], asks, corpora, seed: int, result: Result):
    """Compare answers; returns the number of failed asks and checks."""
    repro = prepared.repro
    first_answer = {}
    bad = set()
    for a in asks:
        q = a["query"]
        if a["error"] is not None:
            result.mismatch(f"{q.qid} raised {a['error']}")
            bad.add(id(a))
            continue
        ref = first_answer.setdefault(q.qid, a["answer"])
        if a["answer"] != ref:
            result.mismatch(f"{q.qid} pass {a['pass']} differs from its first answer")
            bad.add(id(a))
    for q in queries:
        if q.qid not in first_answer:
            continue
        alt = ALTERNATE[q.shape.algorithm]
        other = prepared.ask(q, algorithm=alt, mode="plain")
        if other != first_answer[q.qid]:
            result.mismatch(f"{q.qid} {q.shape.algorithm} != {alt}")
            bad.update(id(a) for a in asks if a["query"].qid == q.qid)
    failed = len(bad)
    checks = 0
    # The naive oracle on a small sample of each corpus.
    rng = random.Random(f"naive/{seed}")
    for preset in corpora:
        ds = prepared.datasets[preset]
        users = rng.sample(list(ds.users), min(NAIVE_USERS, len(ds.users)))
        small = ds.subset_users(users)
        loc, doc, user = inputs.PRESETS[inputs.preset_of(preset)].thresholds
        pairs = [
            (repro.stps_join(small, loc, doc, user, algorithm=F),
             repro.stps_join(small, loc, doc, user, algorithm="naive")),
            (repro.topk_stps_join(small, loc, doc, 10),
             repro.topk_stps_join(small, loc, doc, 10, algorithm="naive")),
        ]
        for mine, oracle in pairs:
            checks += 1
            if pair_key(mine) != pair_key(oracle):
                result.mismatch(f"{preset} sample differs from the naive oracle")
                failed += 1
    return failed, checks


#: Shapes whose observed call on the default kernel is cheap enough to
#: repeat there, as a drift check of the python-kernel counters.
DEFAULT_KERNEL_CHECK = {F, TP}


def counters(prepared: Prepared, queries: List[Query]) -> Dict[str, dict]:
    """``Telemetry.work_counters()`` of every distinct shape.

    One observed call per (preset, algorithm, k) at the base thresholds
    and base eps_loc, so a seed's section compares across commits as
    counts.  The counters are taken with ``kernel="python"``: on the
    default kernel an observed S-PPJ-B/C/D or Flickr top-k call costs
    10 to 22 s at these sizes, more than the traced run can spend.  The
    program keeps work counters identical across kernels; the S-PPJ-F
    and TOPK-S-PPJ-P shapes are run on the default kernel as well and
    any difference is listed under ``drift``.
    """
    repro = prepared.repro

    def observe(shape, kernel):
        loc, doc, user = inputs.PRESETS[inputs.preset_of(shape.preset)].thresholds
        tel = repro.Telemetry()
        kwargs = {"index": prepared.index_for(shape.preset, loc, shape.algorithm),
                  "telemetry": tel, "kernel": kernel}
        ds = prepared.datasets[shape.preset]
        start = time.perf_counter()
        if shape.kind == "join":
            repro.stps_join(ds, loc, doc, user, algorithm=shape.algorithm, **kwargs)
        else:
            repro.topk_stps_join(ds, loc, doc, shape.k, algorithm=shape.algorithm, **kwargs)
        return time.perf_counter() - start, tel.work_counters()

    shapes, drift = {}, []
    for q in queries:
        shape = q.shape
        key = f"{shape.preset}:{shape.algorithm}" + (f":k{shape.k}" if shape.k else "")
        if key in shapes or shape.kind == "knn":
            continue
        seconds, work = observe(shape, "python")
        shapes[key] = {"python_s": seconds, "work": work}
        if shape.algorithm in DEFAULT_KERNEL_CHECK:
            seconds, default_work = observe(shape, None)
            shapes[key]["default_s"] = seconds
            if default_work != work:
                drift.append(key)
    return {"shapes": shapes, "drift": drift}


def setup(repro, records, queries, reps: int = 3, tracer=OFF):
    """Build everything ``reps`` times, each bracketed by reference
    slices; returns (median scaled seconds, raw seconds, last build)."""
    times, scaled_times = [], []
    prepared = None
    before = reference_seconds()
    for _ in range(reps):
        prepared = None
        seconds, prepared = timed(Prepared, repro, records, queries, tracer)
        after = reference_seconds()
        times.append(seconds)
        scaled_times.append(scaled(seconds, before, after))
        before = after
    return median(scaled_times), times, prepared


def generate(workload: str, seed: int) -> Dict[str, list]:
    return {
        preset: inputs.corpus(preset, users, seed)
        for preset, users in WORKLOADS[workload]["corpora"].items()
    }


def run(workload: str, seed: int, seconds: int, result: Result) -> Prepared:
    """The untraced run: every end-to-end metric."""
    import repro

    records = generate(workload, seed)
    queries = make_queries(workload, seed)
    orders = pass_orders(workload, seed, queries, seconds)
    setup_s, setup_raw, prepared = setup(repro, records, queries)
    asks, wall = run_sequence(prepared, orders, reference=True)
    rss = peak_rss_mb()

    failed, checks = check(prepared, queries, asks, records, seed, result)
    result.attempted = len(asks) + checks
    result.failed = failed
    ok = [a for a in asks if a["error"] is None]

    def timings(key):
        lat = [a[key] for a in asks]
        tail_value, pct, n = tail(lat)
        return {
            "setup_s": setup_s if key == "scaled" else median(setup_raw),
            # Closed loop, one caller: queries per second of busy time.
            "throughput_qps": len(ok) / sum(lat),
            "latency_p50_s": median(lat),
            "latency_tail_s": tail_value,
            "join_p50_s": median([a[key] for a in asks if a["query"].shape.kind == "join"]),
            "topk_p50_s": median([a[key] for a in asks if a["query"].shape.kind == "topk"]),
            "hit_p50_s": median([a[key] for a in asks if a["pass"] > 0]),
        }, pct, n

    values, pct, n = timings("scaled")
    for name, value in values.items():
        result.metric(name, value, "1/s" if name == "throughput_qps" else "s")
    result.metric("peak_rss_mb", rss, "MB")
    result.metric("ok_ratio", (result.attempted - result.failed) / result.attempted, "ratio")
    result.note("tail", f"p{pct} of {n} samples")
    raw = timings("seconds")[0]
    result.note("unscaled", ", ".join(f"{k}={v:.6g}" for k, v in raw.items()))
    refs = [a["scaled"] / a["seconds"] for a in asks]
    result.note("host_speed", f"median {median(refs):.3f}, range {min(refs):.3f}-{max(refs):.3f} of nominal")
    result.report.update(
        setup_runs_s=setup_raw,
        passes=len(orders),
        unscaled=raw,
        queries=[
            {"qid": q.qid, "preset": q.shape.preset, "kind": q.shape.kind,
             "algorithm": q.shape.algorithm, "mode": q.shape.mode,
             "workers": q.shape.workers, "eps_loc": q.eps_loc,
             "eps_doc": q.eps_doc, "third": q.third,
             "median_s": median([a["seconds"] for a in asks if a["query"] is q]),
             "median_scaled_s": median([a["scaled"] for a in asks if a["query"] is q])}
            for q in queries
        ],
        wall_s=wall,
    )
    return prepared
