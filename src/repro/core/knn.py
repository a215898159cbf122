"""Single-user similarity search: the k most similar users to a probe.

The paper's motivating applications (friend recommendation, finding local
experts) usually ask for neighbours of *one* user rather than all pairs.
This query reuses the S-PPJ-F machinery for a single probe: index every
other user in the spatio-textual grid once, collect candidates through the
per-cell token lists, order them by the optimistic bound ``sigma_bar``
descending and refine with PPJ-B against the current k-th best score —
once the next candidate's bound cannot beat that score, the search stops.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..stindex.stgrid import STGridIndex
from .model import STDataset, UserId
from .pair_eval import PairEvalStats, ppj_b_pair
from .query import UserPair, _check_thresholds
from .similarity import set_similarity
from .sppj_f import candidate_bound, collect_candidates
from .topk import _TopKHeap

__all__ = ["similar_users", "naive_similar_users"]


def similar_users(
    dataset: STDataset,
    user: UserId,
    eps_loc: float,
    eps_doc: float,
    k: int,
    stats: Optional[PairEvalStats] = None,
    index: Optional[STGridIndex] = None,
) -> List[Tuple[UserId, float]]:
    """The ``k`` users most similar to ``user``, with their sigma scores.

    Zero-similarity users never qualify; fewer than ``k`` results are
    returned when fewer users share any matching object with the probe.

    ``index`` may supply a pre-built *full* grid index over the whole
    dataset (every user, probe included, ``with_tokens=True``, matching
    ``eps_loc``) — the warm-index path of the resident join server.  The
    probe itself is filtered out of the candidate set; both the candidate
    bound and the PPJ-B refinement depend only on the two users involved,
    so results are byte-identical to the cold path, which builds the
    index here.

    Raises ``ValueError`` for out-of-range thresholds (as the join
    queries do), an unknown probe user, non-positive ``k``, or a
    prebuilt index that does not match ``eps_loc``.
    """
    _check_thresholds(eps_loc, eps_doc)
    if k < 1:
        raise ValueError("k must be positive")
    probe_objects = dataset.user_objects(user)
    if not probe_objects:
        raise ValueError(f"unknown user (or user without objects): {user!r}")

    prebuilt = index is not None
    if prebuilt:
        if index.eps_loc != float(eps_loc):
            raise ValueError("prebuilt index eps_loc does not match the query")
        if not index.with_tokens:
            raise ValueError(
                "prebuilt grid index was built with with_tokens=False; "
                "knn needs the per-cell token lists"
            )
        sizes = {
            other: len(dataset.user_objects(other))
            for other in dataset.users
            if other != user
        }
    else:
        index = STGridIndex(dataset.bounds, eps_loc, with_tokens=True)
        sizes = {}
        for other in dataset.users:
            if other == user:
                continue
            objs = dataset.user_objects(other)
            sizes[other] = len(objs)
            index.add_user(other, objs)

    own_counts = {}
    for obj in probe_objects:
        cell = index.grid.cell_of(obj.x, obj.y)
        own_counts[cell] = own_counts.get(cell, 0) + 1

    candidates = collect_candidates(index, dataset, user)
    # A full index contains the probe itself; it is never its own
    # neighbour.  Everyone else's candidacy is index-content independent.
    candidates.pop(user, None)
    if stats is not None:
        stats.candidates += len(candidates)

    scored = []
    for cand, (own_cells, cand_cells) in candidates.items():
        bound = candidate_bound(
            index,
            user,
            cand,
            own_cells,
            cand_cells,
            len(probe_objects),
            sizes[cand],
            own_counts=own_counts,
        )
        scored.append((bound, cand))
    # Best-bound-first: lets the k-th score rise fast and the tail stop early.
    scored.sort(key=lambda item: -item[0])

    heap = _TopKHeap(k)
    size_probe = len(probe_objects)
    # Add the probe user to the index so PPJ-B sees both users' cells.
    # A prebuilt full index contains the probe already; inserting again
    # would double its objects and corrupt the scores.
    if not prebuilt:
        index.add_user(user, probe_objects)

    # Ties at the k-th score are decided by the heap's canonical
    # pair_sort_key rule, never by candidate order (which follows
    # set iteration, hence string hashing): a candidate whose bound
    # *equals* the threshold may still win a tie, so prune only below it
    # and offer every score that reaches it.
    for pos, (bound, cand) in enumerate(scored):
        threshold = heap.threshold
        if bound < threshold:
            if stats is not None:
                stats.bound_pruned += len(scored) - pos
            break  # bounds are sorted: nothing later can qualify either
        if stats is not None:
            stats.refinements += 1
        score = ppj_b_pair(
            index,
            cand,
            user,
            eps_loc,
            eps_doc,
            threshold if threshold > 0.0 else 1e-12,
            sizes[cand],
            size_probe,
            stats,
        )
        if score >= threshold and score > 0.0:
            heap.offer(UserPair(user, cand, score))

    return [(pair.user_b, pair.score) for pair in heap.results()]


def naive_similar_users(
    dataset: STDataset,
    user: UserId,
    eps_loc: float,
    eps_doc: float,
    k: int,
) -> List[Tuple[UserId, float]]:
    """Exhaustive oracle for :func:`similar_users`.

    Ties break like :func:`~repro.core.query.pair_sort_key` (smaller user
    id string first), the rule :func:`similar_users`' heap applies.
    """
    _check_thresholds(eps_loc, eps_doc)
    if k < 1:
        raise ValueError("k must be positive")
    probe_objects = dataset.user_objects(user)
    if not probe_objects:
        raise ValueError(f"unknown user (or user without objects): {user!r}")
    scored = []
    for other in dataset.users:
        if other == user:
            continue
        score = set_similarity(
            probe_objects, dataset.user_objects(other), eps_loc, eps_doc
        )
        if score > 0.0:
            scored.append((other, score))
    scored.sort(key=lambda item: (-item[1], str(item[0])))
    return scored[:k]
