"""TOPK-S-PPJ-D — the top-k principle applied to S-PPJ-D.

Section 4.2.1 of the paper: *"The same principle can be straightforwardly
applied to S-PPJ-D.  Pseudocode for the resulting algorithm is omitted due
to lack of space."*  This module supplies that algorithm: users are
processed in ascending object-set-size order; candidates are collected
through the per-leaf inverted token lists, restricted to already-processed
users so each pair is considered once; the leaf-level ``sigma_bar`` bound
filters candidates against the current k-th best score; survivors are
refined with PPJ-D whose early-termination threshold also tracks the k-th
best score.
"""

from __future__ import annotations

from typing import List, Optional, Set

from ..stindex.leaf_index import STLeafIndex
from .model import STDataset, UserId
from .pair_eval import PairEvalStats
from .ppj_d import ppj_d_pair
from .query import TopKQuery, UserPair
from .topk import _TopKHeap

__all__ = ["topk_sppj_d"]


def topk_sppj_d(
    dataset: STDataset,
    query: TopKQuery,
    stats: Optional[PairEvalStats] = None,
    fanout: int = 100,
    index: Optional[STLeafIndex] = None,
) -> List[UserPair]:
    """Top-k STPSJoin over an R-tree-leaf partitioning.

    Accepts a prebuilt :class:`STLeafIndex` (built with the query's
    ``eps_loc``) for the data-already-partitioned scenario S-PPJ-D targets.
    """
    if index is None:
        index = STLeafIndex(dataset, query.eps_loc, fanout=fanout)
    elif index.eps_loc != query.eps_loc:
        raise ValueError("prebuilt index eps_loc does not match the query")

    rank = {u: i for i, u in enumerate(dataset.users)}
    sizes = {u: len(dataset.user_objects(u)) for u in dataset.users}
    ordered = sorted(dataset.users, key=lambda u: (sizes[u], rank[u]))

    heap = _TopKHeap(query.k)
    processed: Set[UserId] = set()

    for user in ordered:
        candidates = index.leaf_candidates(user, processed.__contains__)
        processed.add(user)
        if stats is not None:
            stats.candidates += len(candidates)

        size_u = sizes[user]
        for cand, (own_leaves, cand_leaves) in candidates.items():
            threshold = heap.threshold
            total = size_u + sizes[cand]
            if total == 0:
                continue
            own = sum(index.leaf_user_count(l, user) for l in own_leaves)
            other = sum(index.leaf_user_count(l, cand) for l in cand_leaves)
            # Strict comparison: equality refines, so canonical ties at
            # the k-th position are never lost (see repro.core.topk).
            if (own + other) / total < threshold:
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
                threshold if threshold > 0.0 else 1e-12,
                size_u,
                sizes[cand],
                stats,
            )
            if score > 0.0:
                first, second = (
                    (cand, user) if rank[cand] < rank[user] else (user, cand)
                )
                heap.offer(UserPair(first, second, score))
    return heap.results()
