"""The clip-pack cache of :class:`STLeafIndex` never changes an answer.

PPJ-D reads each leaf pair's clipped object lists from a per-``(leaf,
user)`` cache that fills on first touch and is kept for later queries.
A warm, shared index must answer every later query — different
``eps_doc`` / ``eps_user`` / ``k``, with or without telemetry, from any
number of threads or worker processes — exactly as a fresh index does:
the same pairs with the same float bits, the same ``PairEvalStats`` and
the same work counters.
"""

from __future__ import annotations

import multiprocessing
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import STDataset, Telemetry, stps_join, topk_stps_join
from repro.core.pair_eval import PairEvalStats
from repro.core.query import STPSJoinQuery, TopKQuery, pairs_to_dict
from repro.core.sppj_d import sppj_d
from repro.core.topk_d import topk_sppj_d
from repro.stindex.leaf_index import STLeafIndex
from tests.helpers import build_clustered_dataset

fork_available = "fork" in multiprocessing.get_all_start_methods()

#: Objects sit on a lattice of half this step, so leaf MBRs extended by
#: eps_loc land exactly on object coordinates: many objects lie on the
#: edges and corners of the clip areas, where ``contains_point`` decides.
LATTICE_EPS = 1.0

_objects = st.lists(
    st.tuples(
        st.integers(0, 4),
        st.integers(0, 8),
        st.integers(0, 8),
        st.frozensets(st.integers(0, 5), min_size=1, max_size=3),
    ),
    min_size=12,
    max_size=40,
    unique_by=lambda obj: obj[1:3],  # spread out: one object per lattice point
)
_join = st.tuples(
    st.just("join"), st.sampled_from([0.2, 0.34, 0.5, 1.0]),
    st.sampled_from([0.1, 0.3, 0.6]),
)
_topk = st.tuples(
    st.just("topk"), st.sampled_from([0.2, 0.34, 0.5, 1.0]),
    st.integers(1, 6),
)


def _fingerprint(pairs):
    return [(p.user_a, p.user_b, p.score.hex()) for p in pairs]


def _ask(ds, index, spec, observed):
    """One query on ``index``: (pairs, PairEvalStats, work counters)."""
    kind, eps_doc, third = spec
    stats = PairEvalStats()
    counters = None
    if observed:
        tele = Telemetry()
        if kind == "join":
            pairs = stps_join(
                ds, LATTICE_EPS, eps_doc, third, algorithm="s-ppj-d",
                index=index, stats=stats, telemetry=tele,
            )
        else:
            pairs = topk_stps_join(
                ds, LATTICE_EPS, eps_doc, third, algorithm="topk-s-ppj-d",
                index=index, stats=stats, telemetry=tele,
            )
        counters = tele.work_counters()
    elif kind == "join":
        pairs = sppj_d(
            ds, STPSJoinQuery(LATTICE_EPS, eps_doc, third), stats=stats,
            index=index,
        )
    else:
        pairs = topk_sppj_d(
            ds, TopKQuery(LATTICE_EPS, eps_doc, third), stats=stats,
            index=index,
        )
    return _fingerprint(pairs), stats.as_dict(), counters


@given(
    _objects,
    st.sampled_from(["rtree", "quadtree"]),
    st.integers(2, 8),
    st.lists(st.one_of(_join, _topk), min_size=3, max_size=5),
)
@settings(max_examples=60, deadline=None)
def test_warm_index_answers_like_a_fresh_one(objects, partitioner, fanout, specs):
    ds = STDataset.from_records(
        [
            (f"u{user}", x / 2.0, y / 2.0, {f"t{t}" for t in tokens})
            for user, x, y, tokens in objects
        ]
    )

    def build():
        return STLeafIndex(ds, LATTICE_EPS, fanout=fanout, partitioner=partitioner)

    shared = build()
    for i, spec in enumerate(specs):
        observed = i % 2 == 1  # plain and telemetry-on asks interleave
        warm = _ask(ds, shared, spec, observed)
        assert warm == _ask(ds, build(), spec, observed)
        if spec[0] == "join":
            oracle = stps_join(ds, LATTICE_EPS, spec[1], spec[2], algorithm="naive")
            assert {(a, b): float.fromhex(s) for a, b, s in warm[0]} == (
                pairs_to_dict(oracle)
            )


def test_clips_share_the_full_pack_and_skip_empty_areas():
    ds = build_clustered_dataset(seed=5, n_users=20, objects_per_user=8)
    index = STLeafIndex(ds, 0.02, fanout=4)
    for user in ds.users:
        for leaf, size in zip(index.user_leaves(user), index.user_leaf_sizes(user)):
            packs = index.clip_packs(leaf, user)
            assert packs is index.clip_packs(leaf, user)
            assert list(packs) == sorted(packs)
            assert set(packs) <= set(index.relevant_leaves(leaf))
            # The leaf's own extended MBR keeps every object.
            assert len(packs[leaf]) == size
            for other, pack in packs.items():
                assert 0 < len(pack) <= size
                if len(pack) == size:
                    assert pack is packs[leaf]


def test_threads_share_a_cold_index():
    ds = build_clustered_dataset(seed=9, n_users=40, objects_per_user=8)
    query = STPSJoinQuery(0.02, 0.3, 0.2)
    expected = _fingerprint(sppj_d(ds, query, fanout=8))
    shared = STLeafIndex(ds, query.eps_loc, fanout=8)
    start = threading.Barrier(4)
    answers = [None] * 4

    def run(slot):
        start.wait()
        answers[slot] = _fingerprint(sppj_d(ds, query, index=shared))

    threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so cache fills race
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert expected
    assert answers == [expected] * 4


@pytest.mark.parametrize(
    "backend,kwargs",
    [
        ("thread", {}),
        pytest.param(
            "process", {"start_method": "fork"},
            marks=pytest.mark.skipif(
                not fork_available, reason="fork start method unavailable"
            ),
        ),
    ],
)
@pytest.mark.parametrize("kind", ["join", "topk"])
def test_backends_on_a_warm_index(backend, kwargs, kind):
    ds = build_clustered_dataset(seed=9, n_users=40, objects_per_user=8)
    warm = STLeafIndex(ds, 0.02, fanout=8)

    def run(**extra):
        tele = Telemetry()
        if kind == "join":
            pairs = stps_join(
                ds, 0.02, 0.3, 0.2, algorithm="s-ppj-d", index=warm,
                telemetry=tele, chunk_size=5, **extra,
            )
        else:
            pairs = topk_stps_join(
                ds, 0.02, 0.3, 5, algorithm="topk-s-ppj-d", index=warm,
                telemetry=tele, chunk_size=5, **extra,
            )
        return _fingerprint(pairs), tele.work_counters()

    sequential = run()  # also fills the cache the workers then read
    assert sequential[0]
    assert run() == sequential
    assert run(workers=2, backend=backend, **kwargs) == sequential
