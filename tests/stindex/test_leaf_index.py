"""The R-tree leaf spatio-textual index of S-PPJ-D."""

import pytest

from repro.stindex.leaf_index import STLeafIndex
from tests.helpers import build_random_dataset


@pytest.fixture(scope="module")
def dataset():
    return build_random_dataset(4, n_users=6)


@pytest.fixture(params=["rtree", "quadtree"], scope="module")
def index(request, dataset):
    return STLeafIndex(
        dataset, eps_loc=0.1, fanout=8, partitioner=request.param
    )


class TestConstruction:
    def test_every_object_in_exactly_one_leaf(self, dataset, index):
        total = 0
        for leaf_id in range(index.num_leaves):
            for user in index.leaf_users(leaf_id):
                total += index.leaf_user_count(leaf_id, user)
        assert total == dataset.num_objects

    def test_user_leaves_sorted_and_consistent(self, dataset, index):
        for user in dataset.users:
            leaves = index.user_leaves(user)
            assert leaves == sorted(leaves)
            for leaf_id in leaves:
                assert index.leaf_user_count(leaf_id, user) > 0

    def test_unknown_user(self, index):
        assert index.user_leaves("ghost") == []

    def test_extended_rects_cover_leaf(self, index):
        for leaf_id, leaf in enumerate(index.tree.leaves()):
            assert index.extended[leaf_id].contains_rect(leaf.mbr)

    def test_fanout_respected(self, dataset):
        index = STLeafIndex(dataset, eps_loc=0.1, fanout=4)
        for leaf in index.tree.leaves():
            assert len(leaf.entries) <= 4

    def test_unknown_partitioner(self, dataset):
        with pytest.raises(ValueError):
            STLeafIndex(dataset, eps_loc=0.1, partitioner="kd-tree")


class TestTokenLists:
    def test_token_users_complete(self, dataset, index):
        leaf_of = {}
        for leaf in index.tree.leaves():
            for _, _, obj in leaf.entries:
                leaf_of[obj.oid] = leaf.leaf_id
        for obj in dataset.objects:
            lid = leaf_of[obj.oid]
            for token in obj.doc:
                assert obj.user in index.token_users(lid, token)

    def test_user_leaf_tokens(self, dataset, index):
        user = dataset.users[0]
        for leaf_id in index.user_leaves(user):
            expected = set()
            for obj in index.leaf_objects(leaf_id, user):
                expected.update(obj.doc)
            assert index.user_leaf_tokens(user, leaf_id) == expected


class TestRelevance:
    def test_relevance_symmetric_and_reflexive(self, index):
        for leaf_id in range(index.num_leaves):
            rel = index.relevant_leaves(leaf_id)
            assert leaf_id in rel
            for other in rel:
                assert leaf_id in index.relevant_leaves(other)

    def test_relevance_matches_extended_intersection(self, index):
        for a in range(index.num_leaves):
            for b in range(index.num_leaves):
                expected = index.extended[a].intersects(index.extended[b])
                assert (b in index.relevant_leaves(a)) == expected

    def test_intersection_area(self, index):
        for leaf_id in range(index.num_leaves):
            for other in index.relevant_leaves(leaf_id):
                area = index.extended[leaf_id].intersection(index.extended[other])
                assert area is not None
