"""PPJ-D — pair evaluation over R-tree leaf partitions (Algorithm 3).

The analogue of PPJ-B for a data-driven partitioning: the two users' leaf
lists are merged in ascending leaf-id order; whenever a leaf ``l`` of one
user is consumed, it is joined with every *relevant* leaf of the other
user that has not been responsible for the pair yet (``>= l`` when
consuming from the first list, ``> l`` from the second, so each ordered
leaf pair is joined exactly once).  Each leaf-pair join is restricted to
the intersection ``A`` of the two ``eps_loc``-extended leaf MBRs —
objects outside ``A`` cannot satisfy the spatial threshold.  The clipped
object lists come packed from the index's lazily filled per-``(leaf,
user)`` cache (:meth:`~repro.stindex.leaf_index.STLeafIndex.clip_packs`),
so a leaf is clipped once per partner leaf, not once per user pair; a
leaf pair where either clip is empty is never joined.  After a leaf is
consumed all its objects are decided, so the running count of decided,
unmatched objects prunes against the Lemma 1 bound exactly as in PPJ-B.
"""

from __future__ import annotations

from typing import Optional, Set

from ..stindex.leaf_index import STLeafIndex
from .model import UserId
from .pair_eval import PairEvalStats, join_packs

__all__ = ["ppj_d_pair"]

_EPS = 1e-9
_PAST_LAST = float("inf")


def ppj_d_pair(
    index: STLeafIndex,
    user_a: UserId,
    user_b: UserId,
    eps_loc: float,
    eps_doc: float,
    eps_user: float,
    size_a: int,
    size_b: int,
    stats: Optional[PairEvalStats] = None,
) -> float:
    """Exact ``sigma`` of a user pair, or ``0.0`` once it provably misses
    ``eps_user``."""
    total = size_a + size_b
    if total == 0:
        return 0.0
    beta = (1.0 - eps_user) * total + _EPS

    leaves_a = index.user_leaves(user_a)
    leaves_b = index.user_leaves(user_b)
    if not leaves_a or not leaves_b:
        return 0.0
    sizes_a = index.user_leaf_sizes(user_a)
    sizes_b = index.user_leaf_sizes(user_b)
    set_b = set(leaves_b)
    set_a = set(leaves_a)
    clip_packs = index.clip_packs
    eps_sq = eps_loc * eps_loc

    matched_a: Set[int] = set()
    matched_b: Set[int] = set()
    i_a = i_b = 0
    decided = 0  # objects whose every matching opportunity has been joined

    n_a, n_b = len(leaves_a), len(leaves_b)
    while i_a < n_a or i_b < n_b:
        # An exhausted list reads as a leaf id past every real one.
        leaf_a = leaves_a[i_a] if i_a < n_a else _PAST_LAST
        leaf_b = leaves_b[i_b] if i_b < n_b else _PAST_LAST
        take_a = leaf_a <= leaf_b
        take_b = leaf_b <= leaf_a

        if take_a:
            for other, pack_a in clip_packs(leaf_a, user_a).items():
                if other >= leaf_a and other in set_b:
                    pack_b = clip_packs(other, user_b).get(leaf_a)
                    if pack_b is not None:
                        join_packs(
                            pack_a, pack_b, eps_sq, eps_doc,
                            matched_a, matched_b, stats,
                        )
            decided += sizes_a[i_a]

        if take_b:
            for other, pack_b in clip_packs(leaf_b, user_b).items():
                if other > leaf_b and other in set_a:
                    pack_a = clip_packs(other, user_a).get(leaf_b)
                    if pack_a is not None:
                        join_packs(
                            pack_a, pack_b, eps_sq, eps_doc,
                            matched_a, matched_b, stats,
                        )
            decided += sizes_b[i_b]

        # Lemma 1 pruning on decided objects.  len(matched) may count
        # not-yet-decided objects, which only makes the check conservative.
        if decided - (len(matched_a) + len(matched_b)) > beta:
            if stats is not None:
                stats.early_terminations += 1
            return 0.0

        if take_a:
            i_a += 1
        if take_b:
            i_b += 1

    sigma = (len(matched_a) + len(matched_b)) / total
    return sigma
