"""Single-user k-nearest-neighbour similarity search."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.knn import naive_similar_users, similar_users
from repro.core.pair_eval import PairEvalStats
from tests.helpers import build_clustered_dataset, build_random_dataset


def score_list(results):
    return sorted(round(score, 12) for _, score in results)


class TestSimilarUsers:
    @given(st.integers(0, 300), st.sampled_from([1, 3, 8]))
    @settings(max_examples=25, deadline=None)
    def test_matches_oracle(self, seed, k):
        ds = build_random_dataset(seed, n_users=9)
        probe = ds.users[0]
        expected = naive_similar_users(ds, probe, 0.15, 0.3, k)
        got = similar_users(ds, probe, 0.15, 0.3, k)
        assert score_list(got) == score_list(expected)

    def test_clustered_data_nontrivial(self):
        ds = build_clustered_dataset(3, n_users=12)
        probe = ds.users[0]
        got = similar_users(ds, probe, 0.05, 0.3, 5)
        expected = naive_similar_users(ds, probe, 0.05, 0.3, 5)
        assert score_list(got) == score_list(expected)
        assert got, "clustered data should yield neighbours"

    def test_sorted_descending(self):
        ds = build_clustered_dataset(4, n_users=12)
        got = similar_users(ds, ds.users[0], 0.05, 0.3, 8)
        scores = [s for _, s in got]
        assert scores == sorted(scores, reverse=True)

    def test_probe_never_in_results(self):
        ds = build_clustered_dataset(5, n_users=10)
        probe = ds.users[0]
        got = similar_users(ds, probe, 0.05, 0.3, 10)
        assert probe not in [u for u, _ in got]

    def test_unknown_user_raises(self):
        ds = build_random_dataset(0, n_users=4)
        with pytest.raises(ValueError):
            similar_users(ds, "ghost", 0.1, 0.3, 3)

    def test_invalid_k_raises(self):
        ds = build_random_dataset(0, n_users=4)
        with pytest.raises(ValueError):
            similar_users(ds, ds.users[0], 0.1, 0.3, 0)

    @pytest.mark.parametrize("search", [similar_users, naive_similar_users])
    @pytest.mark.parametrize("eps_loc,eps_doc", [(0.1, 7.0), (0.1, 0.0), (-1.0, 0.3)])
    def test_out_of_range_thresholds_raise(self, search, eps_loc, eps_doc):
        ds = build_random_dataset(0, n_users=4)
        with pytest.raises(ValueError, match="eps_loc|eps_doc"):
            search(ds, ds.users[0], eps_loc, eps_doc, 3)

    def test_no_positive_neighbours(self):
        from repro import STDataset

        ds = STDataset.from_records(
            [("a", 0.0, 0.0, {"x"}), ("b", 100.0, 100.0, {"y"})]
        )
        assert similar_users(ds, "a", 0.1, 0.5, 3) == []

    def test_stats_counters(self):
        ds = build_clustered_dataset(6, n_users=12)
        stats = PairEvalStats()
        similar_users(ds, ds.users[0], 0.05, 0.3, 3, stats=stats)
        assert stats.candidates >= stats.refinements

    def test_figure1_probe(self, tiny_dataset):
        got = similar_users(tiny_dataset, "u1", 0.005, 0.3, 2)
        assert got[0][0] == "u3"
        assert got[0][1] == pytest.approx(0.8)



#: Runs the knn query on records read as JSON from stdin, in a fresh
#: interpreter (so with its own string-hash seed).
_KNN_SCRIPT = """
import json, sys
from repro import STDataset
from repro.core.knn import similar_users
ds = STDataset.from_records([tuple(r) for r in json.load(sys.stdin)])
print(json.dumps(similar_users(ds, "probe", 0.01, 0.3, 5)))
"""


def test_knn_ties_independent_of_hash_seed():
    """Which users tied at the k-th score survive must follow the
    canonical pair order, not the iteration order of the index's
    token -> users sets (which follows string hashing)."""
    import json
    import os
    import subprocess
    import sys

    import repro
    from repro import STDataset

    records = [("probe", 0.0, 0.0, ["a", "b"])]
    records += [(f"n{i:02d}", 0.0, 0.0, ["a", "b"]) for i in range(24)]
    records += [(f"m{i:02d}", 0.001, 0.0, ["a"]) for i in range(6)]
    src = os.path.dirname(os.path.dirname(repro.__file__))
    answers = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", _KNN_SCRIPT], input=json.dumps(records),
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        answers.append([tuple(pair) for pair in json.loads(out)])
    oracle = naive_similar_users(
        STDataset.from_records(records), "probe", 0.01, 0.3, 5
    )
    assert answers[0] == answers[1] == oracle
