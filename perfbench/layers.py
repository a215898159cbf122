"""The traced run: per-layer metrics, measured from outside each layer.

Nothing here changes the program.  Each metric times calls into one
module's public functions from the benchmark's own files:

* a traced slice of the workload's own sequence, with a span around
  every layer call, gives self time per layer, span coverage and the
  tracing overhead (the same slice timed again untraced);
* direct probes on the workload's probe corpus time the datasets,
  stindex, core.kernels, core and exec layers;
* the observed/plain ratios run on a Twitter corpus of 100 users,
  because at the workloads' sizes one observed S-PPJ-C call alone takes
  3 to 40 seconds;
* the serve and serve.http metrics come from the workload's server: the
  real subprocess for serve-mixed, and a server thread in this process
  on the probe corpus for the api workloads.

The api-batch traced run also records the ``counters`` section: the
deterministic work counters of every distinct api-batch query shape
(see :func:`perfbench.api.counters` for the kernel they are taken on).
"""

from __future__ import annotations

import contextlib
import random
import shutil
import sys
import threading
import time
import tracemalloc

from . import api, inputs, serve
from .common import WORK, Result, median, timed
from .tracing import Tracer

LAYERS = ("datasets", "stindex", "core.kernels", "core", "exec", "obs", "serve", "serve.http")

#: The corpus each workload's layer probes run on.
PROBE = {
    "api-batch": "flickr",
    "api-observed": "twitter",
    "serve-mixed": "twitter",
}
#: Queries in the traced (and untraced) slice of an api workload.
SLICE = 8


def med(fn, reps: int = 3) -> float:
    return median([timed(fn)[0] for _ in range(reps)])


# -- core, stindex, kernels, exec ----------------------------------------------


def probe_program(repro, ds, preset: str, result: Result, load) -> None:
    from repro.core import kernels
    from repro.core.knn import similar_users
    from repro.stindex.leaf_index import STLeafIndex
    from repro.stindex.stgrid import STGridIndex

    loc, doc, user = inputs.PRESETS[preset].thresholds
    metric = result.metric

    metric("datasets.load_s", med(load), "s")

    def grid_build():
        grid = STGridIndex(ds.bounds, loc, with_tokens=True)
        for u in ds.users:
            grid.add_user(u, ds.user_objects(u))
        return grid

    metric("stindex.grid_build_s", med(grid_build), "s")
    metric("stindex.leaf_build_s", med(lambda: STLeafIndex(ds, loc)), "s")
    tracemalloc.start()
    try:
        grid_build()
        STLeafIndex(ds, loc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    metric("stindex.alloc_mb", peak / 2**20, "MB")
    builds = []
    for _ in range(3):
        fresh = grid_build()
        builds.append(timed(kernels.batch_kernel_for, fresh, ds.users)[0])
    metric("kernels.batch_build_s", median(builds), "s")

    grid = grid_build()
    leaf = STLeafIndex(ds, loc)
    join_q = repro.STPSJoinQuery(loc, doc, user)
    topk_q = repro.TopKQuery(loc, doc, 10)
    # The grid algorithms take no index argument when called directly,
    # so their direct calls include building their own grid.
    for name in ("s-ppj-f", "s-ppj-b", "s-ppj-c"):
        metric(f"core.{name}.call_s", med(lambda: repro.JOIN_ALGORITHMS[name](ds, join_q), 2), "s")
    direct_d = med(lambda: repro.JOIN_ALGORITHMS["s-ppj-d"](ds, join_q, index=leaf), 1)
    metric("core.s-ppj-d.call_s", direct_d, "s")
    metric("core.topk-s-ppj-p.call_s",
           med(lambda: repro.TOPK_ALGORITHMS["topk-s-ppj-p"](ds, topk_q), 2), "s")
    metric("core.topk-s-ppj-d.call_s",
           med(lambda: repro.TOPK_ALGORITHMS["topk-s-ppj-d"](ds, topk_q, index=leaf), 1), "s")
    probes = random.Random(7).sample(list(ds.users), 20)
    metric("core.knn.call_s", median(
        [timed(similar_users, ds, u, loc, doc, 10, index=grid)[0] for u in probes]), "s")

    tel = repro.Telemetry()
    repro.stps_join(ds, loc, doc, user, index=grid, telemetry=tel)
    work = tel.work_counters()
    evaluated = work.get("pairs.evaluated", 0)
    verified = work.get("funnel.verified", 0)
    metric("core.pairs_evaluated", evaluated, "count")
    metric("core.object_pairs", work.get("funnel.object_pairs", 0), "count")
    metric("core.verified", verified, "count")
    metric("core.matched", work.get("funnel.matched", 0), "count")
    metric("core.verify_yield", work.get("funnel.matched", 0) / max(verified, 1), "ratio")
    metric("core.pair_yield", work.get("pairs.emitted", 0) / max(evaluated, 1), "ratio")

    engine_d = med(lambda: repro.stps_join(ds, loc, doc, user, algorithm="s-ppj-d", index=leaf), 1)
    metric("exec.overhead_s", engine_d - direct_d, "s")
    one = med(lambda: repro.stps_join(ds, loc, doc, user, index=grid, workers=1, backend="process"))
    two = med(lambda: repro.stps_join(ds, loc, doc, user, index=grid, workers=2, backend="process"))
    metric("exec.pool_efficiency", one / (2 * two), "ratio")
    result.report["exec"] = {"engine_d_s": engine_d, "workers1_s": one, "workers2_s": two}


def probe_obs(repro, result: Result, seed: int) -> None:
    """Observed / plain ratios on the default kernel (Twitter, 100 users)."""
    from repro.stindex.stgrid import STGridIndex

    ds = repro.STDataset.from_records(inputs.corpus("twitter", 100, seed))
    loc, doc, user = inputs.PRESETS["twitter"].thresholds
    grid = STGridIndex.build(ds, loc, with_tokens=True)
    ratios = {}
    for name, kind in (("s-ppj-f", "join"), ("s-ppj-c", "join"), ("topk-s-ppj-p", "topk")):
        def call(**kw):
            if kind == "join":
                return repro.stps_join(ds, loc, doc, user, algorithm=name, index=grid, **kw)
            return repro.topk_stps_join(ds, loc, doc, 10, algorithm=name, index=grid, **kw)

        plain = med(call)
        telemetry = timed(lambda: call(telemetry=repro.Telemetry()))[0]
        explain = timed(lambda: call(explain=True))[0]
        result.metric(f"obs.telemetry_ratio.{name}", telemetry / plain, "ratio")
        result.metric(f"obs.explain_ratio.{name}", explain / plain, "ratio")
        ratios[name] = {"plain_s": plain, "telemetry_s": telemetry, "explain_s": explain}
    result.report["obs"] = ratios


# -- serve and serve.http ----------------------------------------------------------


def inprocess_service_times(ds, preset: str, seed: int):
    """``JoinService.query`` in this process: uncached and cached seconds."""
    from repro.serve import JoinService

    service = JoinService()
    service.register_dataset("probe", ds)
    loc, doc, user = inputs.PRESETS[preset].thresholds
    rng = random.Random(f"service/{seed}")
    bodies = [{"type": "join", "dataset": "probe", "eps_loc": loc,
               "eps_doc": inputs.jitter(rng, doc), "eps_user": inputs.jitter(rng, user)}
              for _ in range(4)]
    service.query(dict(bodies[0]))  # builds the warm grid
    uncached = [timed(service.query, dict(b))[0] for b in bodies[1:]]
    cached = [timed(service.query, dict(bodies[0]))[0] for _ in range(50)]
    service.close()
    return median(uncached), median(cached)


def serve_metrics(client, records, hit_s: float, query_s: float, result: Result) -> None:
    """serve.* and http.* metrics from a driven mix and the server's views."""
    metric = result.metric
    text = serve.parse_metrics(client.metrics())
    hits = text.get("repro_serve_cache_hits", 0.0)
    misses = text.get("repro_serve_cache_misses", 0.0)
    metric("serve.query_s", query_s, "s")
    metric("serve.hit_s", hit_s, "s")
    metric("serve.cache_hit_ratio", hits / max(hits + misses, 1.0), "ratio")
    metric("serve.recaptures", text.get("repro_serve_slow_captured_total", 0.0), "count")
    metric("serve.rejected", text.get("repro_serve_rejected", 0.0), "count")
    audit = [r for r in client.audit_tail(n=1000, outcome="ok") if r.get("cache") != "hit"]
    for part in ("queue", "execute", "serialize"):
        values = [r["timings"][part] for r in audit if part in r.get("timings", {})]
        metric(f"serve.{part}_s", median(values) if values else 0.0, "s")
    done = [r for r in records if r["error"] is None and r["cls"] != "register"]
    uncached = [r for r in done if not r["response"].get("cached")]
    # The largest gap: a recapture runs after the payload's clock stops.
    worst = max(uncached, key=lambda r: r["seconds"] - r["response"]["elapsed"])
    metric("serve.unreported_s", worst["seconds"] - worst["response"]["elapsed"], "s")
    refresh = [r["seconds"] for r in records if r["cls"] == "register" and r["error"] is None]
    metric("serve.refresh_s", median(refresh) if refresh else 0.0, "s")
    cached = [r["seconds"] for r in done if r["response"].get("cached")]
    metric("http.overhead_s", median(cached) - hit_s, "s")
    metric("http.response_bytes", median([r["bytes"] for r in done]), "bytes")
    result.report["serve"] = {
        "worst_unreported": {"class": worst["cls"], "client_s": worst["seconds"],
                             "elapsed_s": worst["response"]["elapsed"]},
        "slow_entries": len(client.slow_queries()),
    }


def probe_serve_inprocess(repro, records, preset: str, seed: int, workdir, result):
    """A short mix against a server thread in this process (api workloads)."""
    from repro.serve import JoinHTTPServer, JoinService, ServeClient

    paths = [str(workdir / "probe.tsv"), str(workdir / "probe-v2.tsv")]
    serve.write_tsv(records, paths[0])
    serve.write_tsv(inputs.variant(records, seed), paths[1])
    ds = repro.load_tsv(paths[0])
    query_s, hit_s = inprocess_service_times(ds, preset, seed)

    service = JoinService()
    service.register_path(serve.DATASET, paths[0])
    server = JoinHTTPServer(("127.0.0.1", 0), service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        client = ServeClient(f"http://127.0.0.1:{server.port}", timeout=170.0)
        loc, doc, user = inputs.PRESETS[preset].thresholds
        rng = random.Random(f"probe-mix/{seed}")
        hot = serve.join_request(loc, doc, user)
        sequence = [("fresh", serve.join_request(loc, inputs.jitter(rng, doc), inputs.jitter(rng, user)))
                    for _ in range(3)]
        sequence += [("hot", dict(hot)) for _ in range(20)]
        sequence += [("topk", {"type": "topk", "dataset": serve.DATASET, "eps_loc": loc,
                               "eps_doc": doc, "k": 10})]
        sequence += [("register", {"version": 1})]
        mix, _ = serve.drive(client, sequence, paths)
        serve_metrics(client, mix, hit_s, query_s, result)
    finally:
        server.shutdown()
        server.server_close()
        service.close()
        thread.join(timeout=30)


# -- the traced slice ----------------------------------------------------------------


def api_slice(workload: str, seed: int, repro, records, result: Result) -> api.Prepared:
    """Traced setup, then a slice of the sequence, each query asked
    untraced and traced in turn so drift in the host cancels out."""
    tracer = Tracer()
    queries = api.make_queries(workload, seed)
    order = api.pass_orders(workload, seed, queries, 0)[0][:SLICE]
    start = time.perf_counter()
    with tracer.span("setup", None, "setup"):
        prepared = api.Prepared(repro, records, queries, tracer)
    windows = [(start, time.perf_counter())]
    reference = api.run_sequence(prepared, [order])[0]  # also fills the lazy caches
    traced = untraced = 0.0
    for q, ref in zip(order, reference):
        plain, seconds = api.run_sequence(prepared, [[q]])
        untraced += seconds
        t0 = time.perf_counter()
        observed, seconds = api.run_sequence(prepared, [[q]], tracer)
        traced += seconds
        windows.append((t0, time.perf_counter()))
        for ask in plain + observed:
            result.attempted += 1
            if ask["error"] is not None or ask["answer"] != ref["answer"]:
                result.failed += 1
                result.mismatch(f"{q.qid}: traced slice answer differs from the first ask")
    finish_trace(tracer, windows, traced, untraced, result)
    return prepared


def finish_trace(tracer: Tracer, windows, traced, untraced, result: Result) -> None:
    self_times = tracer.self_times()
    for layer in LAYERS:
        result.metric(f"trace.self.{layer}_s", self_times.get(layer, 0.0), "s")
    result.metric("trace.overhead_ratio", traced / untraced - 1.0, "ratio")
    result.metric("trace.uncovered_share", tracer.uncovered_share(windows), "ratio")
    WORK.mkdir(exist_ok=True)
    path = WORK / f"spans-{result.workload}-seed{result.seed}.jsonl"
    tracer.write(path)
    result.report["trace"] = {"spans": len(tracer.spans), "path": str(path.relative_to(WORK.parent)),
                              "traced_s": traced, "untraced_s": untraced}


def run(workload: str, seed: int, seconds: int, result: Result) -> None:
    import repro

    phases = result.report.setdefault("phases_s", {})

    @contextlib.contextmanager
    def phase(name):
        start = time.perf_counter()
        yield
        phases[name] = time.perf_counter() - start
        print(f"phase {name}: {phases[name]:.1f} s", file=sys.stderr, flush=True)

    preset = PROBE[workload]
    workdir = serve.workdir_for(seed)
    try:
        if workload == "serve-mixed":
            run_serve(repro, seed, seconds, workdir, result, phase)
        else:
            records = api.generate(workload, seed)
            with phase("slice"):
                prepared = api_slice(workload, seed, repro, records, result)
            probe_records = records[preset]
            ds = repro.STDataset.from_records(probe_records)
            with phase("program"):
                probe_program(repro, ds, preset, result,
                              lambda: repro.STDataset.from_records(probe_records))
            with phase("obs"):
                probe_obs(repro, result, seed)
            with phase("serve"):
                probe_serve_inprocess(repro, probe_records, preset, seed, workdir, result)
            if workload == "api-batch":
                with phase("counters"):
                    result.report["counters"] = api.counters(
                        prepared, api.make_queries(workload, seed))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_serve(repro, seed: int, seconds: int, workdir, result: Result, phase) -> None:
    tracer = Tracer()
    paths = serve.prepare_inputs(seed, workdir)
    user_ids = serve.loaded_users(paths[0])
    warmup, burst, sequence = serve.make_requests(seed, seconds, user_ids)
    start = time.perf_counter()
    with tracer.span("spawn", "serve", "setup"):
        server = serve.Server(paths[0], workdir / "server.log")
    try:
        client = server.client
        serve.drive(client, warmup, paths, tracer)
        windows = [(start, time.perf_counter())]
        traced = untraced = 0.0
        for _ in range(3):
            hits, wall = serve.drive(client, burst, paths)
            untraced += wall
            t0 = time.perf_counter()
            traced += serve.drive(client, burst, paths, tracer)[1]
            windows.append((t0, time.perf_counter()))
        t0 = time.perf_counter()
        records, _ = serve.drive(client, sequence, paths, tracer)
        windows.append((t0, time.perf_counter()))
        finish_trace(tracer, windows, traced, untraced, result)
        ds = repro.load_tsv(paths[0])
        query_s, hit_s = inprocess_service_times(ds, "twitter", seed)
        serve_metrics(client, hits + records, hit_s, query_s, result)
    finally:
        server.stop()
    with phase("check"):
        result.attempted = len(records)
        result.failed = serve.check(records, serve.Direct(paths), result)
    with phase("program"):
        probe_program(repro, ds, "twitter", result, lambda: repro.load_tsv(paths[0]))
    with phase("obs"):
        probe_obs(repro, result, seed)
