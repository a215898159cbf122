"""S-PPJ-C — the baseline STPSJoin algorithm (Algorithm 1).

Adapted from the PPJ-C spatio-textual point join of Bouros et al.: a grid
with ``eps_loc``-sized cells is built once over the whole database, then
*every* user pair is evaluated with a non-self-join PPJ-C traversal over
the two users' cells, and the exact similarity score is compared against
``eps_user``.  No pruning across pairs, no early termination inside a
pair — this is the reference point the optimized algorithms are measured
against in Figures 4 and 5.
"""

from __future__ import annotations

from typing import List, Optional

from ..obs import runtime as _obs
from ..stindex.stgrid import STGridIndex
from . import kernels as _kernels
from .model import STDataset
from .pair_eval import PairEvalStats, ppj_c_pair
from .query import STPSJoinQuery, UserPair

__all__ = ["sppj_c"]


def sppj_c(
    dataset: STDataset,
    query: STPSJoinQuery,
    stats: Optional[PairEvalStats] = None,
    kernel: Optional[str] = None,
) -> List[UserPair]:
    """Evaluate an STPSJoin query with the S-PPJ-C baseline.

    With the numpy kernel backend resolved (and no stats or metrics
    instrumentation active — those need per-cell-pair attribution), each
    outer user's whole partner row is evaluated by the fused batch
    kernel of :mod:`repro.core.kernels`; scores are byte-identical
    because matched-set membership is evaluation-order independent and
    the batched filters are the same admissible filters in the same
    float64 arithmetic.
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
        # Algorithm 1 joins each new user against all previously selected
        # ones; iterating the triangular loop directly is equivalent.
        if batch is not None:
            if i == 0:
                continue
            counts = batch.row_counts(i, 0, i, eps_sq, query.eps_doc)
            size_b = sizes[user_b]
            for j in range(i):
                user_a = users[j]
                total = sizes[user_a] + size_b
                if total == 0:
                    continue
                score = int(counts[j]) / total
                if score >= query.eps_user:
                    results.append(UserPair(user_a, user_b, score))
            continue
        for user_a in users[:i]:
            matched = ppj_c_pair(
                index, user_a, user_b, query.eps_loc, query.eps_doc, stats
            )
            total = sizes[user_a] + sizes[user_b]
            if total == 0:
                continue
            score = matched / total
            if score >= query.eps_user:
                results.append(UserPair(user_a, user_b, score))
    return results
