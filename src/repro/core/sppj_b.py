"""S-PPJ-B — S-PPJ-C with early termination per pair (Section 4.1.2).

Identical pair enumeration to S-PPJ-C, but every pair is evaluated with
PPJ-B instead of PPJ-C: the snake grid traversal decides each object's
fate as early as possible, and the unmatched-object bound of Lemma 1
(``beta = (1 - eps_user) * (|Du| + |Du'|)``) aborts hopeless pairs before
their grids are fully traversed.
"""

from __future__ import annotations

from typing import List, Optional

from ..obs import runtime as _obs
from ..stindex.stgrid import STGridIndex
from . import kernels as _kernels
from .model import STDataset
from .pair_eval import PairEvalStats, ppj_b_pair
from .query import STPSJoinQuery, UserPair

__all__ = ["sppj_b"]


def sppj_b(
    dataset: STDataset,
    query: STPSJoinQuery,
    stats: Optional[PairEvalStats] = None,
    kernel: Optional[str] = None,
) -> List[UserPair]:
    """Evaluate an STPSJoin query with S-PPJ-B.

    The numpy fast path batches each outer user's partner row through
    the fused kernel (see :func:`repro.core.sppj_c.sppj_c`).  Lemma 1's
    early termination is an admissible shortcut — it only ever returns
    0.0 for pairs whose exact score is provably below ``eps_user`` — so
    the fully evaluated batch scores select the exact same result set,
    byte for byte.  With stats or metrics active the scalar traversal
    runs instead (early-termination accounting needs the real order).
    """
    index = STGridIndex.build(dataset, query.eps_loc, with_tokens=False)
    results: List[UserPair] = []
    users = dataset.users
    sizes = {u: len(dataset.user_objects(u)) for u in users}

    batch = None
    if (
        _kernels.resolve_kernel(kernel) == "numpy"
        and stats is None
        and _obs.active() is None
    ):
        batch = _kernels.batch_kernel_for(index, users)
    eps_sq = query.eps_loc * query.eps_loc

    for i, user_b in enumerate(users):
        size_b = sizes[user_b]
        if batch is not None:
            if i == 0:
                continue
            counts = batch.row_counts(i, 0, i, eps_sq, query.eps_doc)
            for j in range(i):
                user_a = users[j]
                total = sizes[user_a] + size_b
                score = int(counts[j]) / total if total else 0.0
                if score >= query.eps_user:
                    results.append(UserPair(user_a, user_b, score))
            continue
        for user_a in users[:i]:
            score = ppj_b_pair(
                index,
                user_a,
                user_b,
                query.eps_loc,
                query.eps_doc,
                query.eps_user,
                sizes[user_a],
                size_b,
                stats,
            )
            if score >= query.eps_user:
                results.append(UserPair(user_a, user_b, score))
    return results
