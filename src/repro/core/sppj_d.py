"""S-PPJ-D — filter-and-refine STPSJoin over an R-tree partitioning
(Section 4.1.4).

The same filter-and-refine principle as S-PPJ-F, but on a database that is
already partitioned by the leaves of an R-tree: the per-leaf inverted
token lists produce candidate users, the leaf-level object counts give the
optimistic bound ``sigma_bar``, and surviving candidates are refined with
PPJ-D.  Unlike the grid, the partitioning is *independent of eps_loc* —
the reason the paper finds S-PPJ-D slower than S-PPJ-F (grid cells are
tailor-made for the query's spatial threshold) while still far ahead of
the baselines.
"""

from __future__ import annotations

from typing import List, Optional

from ..stindex.leaf_index import STLeafIndex
from .model import STDataset
from .pair_eval import PairEvalStats
from .ppj_d import ppj_d_pair
from .query import STPSJoinQuery, UserPair

__all__ = ["sppj_d"]


def sppj_d(
    dataset: STDataset,
    query: STPSJoinQuery,
    fanout: int = 100,
    stats: Optional[PairEvalStats] = None,
    index: Optional[STLeafIndex] = None,
    partitioner: str = "rtree",
) -> List[UserPair]:
    """Evaluate an STPSJoin query with S-PPJ-D.

    Parameters
    ----------
    fanout:
        R-tree fanout (or quadtree capacity) — controls partition
        granularity (Figure 6).
    index:
        A prebuilt :class:`STLeafIndex` may be supplied when the data is
        "already partitioned", the scenario S-PPJ-D targets; it must have
        been built with the same ``eps_loc``.
    partitioner:
        ``"rtree"`` (the paper's choice) or ``"quadtree"`` — the
        data-partitioning ablation knob.
    """
    if index is None:
        index = STLeafIndex(
            dataset, query.eps_loc, fanout=fanout, partitioner=partitioner
        )
    elif index.eps_loc != query.eps_loc:
        raise ValueError("prebuilt index eps_loc does not match the query")

    rank = {u: i for i, u in enumerate(dataset.users)}
    sizes = {u: len(dataset.user_objects(u)) for u in dataset.users}
    results: List[UserPair] = []

    for user in dataset.users:
        my_rank = rank[user]
        # Filter: probe the per-leaf token lists of relevant leaves for
        # higher-ranked users; M^u and M^{u'} come with each candidate.
        candidates = index.leaf_candidates(user, lambda c: rank[c] > my_rank)

        size_u = sizes[user]
        if stats is not None:
            stats.candidates += len(candidates)
        for cand, (own_leaves, cand_leaves) in candidates.items():
            total = size_u + sizes[cand]
            if total == 0:
                continue
            own = sum(index.leaf_user_count(l, user) for l in own_leaves)
            other = sum(index.leaf_user_count(l, cand) for l in cand_leaves)
            if (own + other) / total < query.eps_user:
                if stats is not None:
                    stats.bound_pruned += 1
                continue
            if stats is not None:
                stats.refinements += 1
            score = ppj_d_pair(
                index,
                user,
                cand,
                query.eps_loc,
                query.eps_doc,
                query.eps_user,
                size_u,
                sizes[cand],
                stats,
            )
            if score >= query.eps_user:
                results.append(UserPair(user, cand, score))
    return results
