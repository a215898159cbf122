"""S-PPJ-F — filter-and-refine STPSJoin over the spatio-textual grid
(Algorithm 2, the paper's best-performing algorithm).

Users are inserted into the grid index one at a time.  Before user ``u``
is inserted, the tokens of ``u``'s objects probe the per-cell inverted
lists of ``u``'s cells and their neighbours; every user ``u'`` already in
the index that shares a token in a relevant cell becomes a *candidate*,
and the cells contributing evidence are accumulated in ``M^u_{u'}`` (cells
of ``u``) and ``M^{u'}_{u'}`` (cells of ``u'``).  The optimistic bound

``sigma_bar = (sum |D^c_u| over M^u + sum |D^c'_u'| over M^{u'}) / (|Du| + |Du'|)``

assumes every object in a contributing cell matches; pairs with
``sigma_bar < eps_user`` are pruned without ever joining objects.  The
survivors are refined with PPJ-B.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..stindex.stgrid import STGridIndex
from .model import STDataset, UserId
from .pair_eval import PairEvalStats, ppj_b_pair, ppj_c_pair
from .query import STPSJoinQuery, UserPair

__all__ = ["sppj_f", "collect_candidates", "candidate_bound"]

CellCoord = Tuple[int, int]


def collect_candidates(
    index: STGridIndex,
    dataset: STDataset,
    user: UserId,
) -> Dict[UserId, Tuple[Set[CellCoord], Set[CellCoord]]]:
    """Filter step of Algorithm 2 (lines 4-9) for a not-yet-inserted user.

    Returns, per candidate user already in the index, the pair
    ``(M^u cells of `user`, M^{u'} cells of the candidate)``.
    """
    candidates: Dict[UserId, Tuple[Set[CellCoord], Set[CellCoord]]] = {}
    cell_tokens: Dict[CellCoord, Set[int]] = {}
    for obj in dataset.user_objects(user):
        cell = index.grid.cell_of(obj.x, obj.y)
        cell_tokens.setdefault(cell, set()).update(obj.doc)
    for cell, tokens in cell_tokens.items():
        if not tokens:
            continue
        for other_cell in index.relevant_cells(cell):
            for token in tokens:
                for cand in index.token_users(other_cell, token):
                    entry = candidates.get(cand)
                    if entry is None:
                        entry = (set(), set())
                        candidates[cand] = entry
                    entry[0].add(cell)
                    entry[1].add(other_cell)
    return candidates


def candidate_bound(
    index: STGridIndex,
    user: UserId,
    candidate: UserId,
    own_cells: Set[CellCoord],
    cand_cells: Set[CellCoord],
    size_user: int,
    size_cand: int,
    own_counts: Optional[Dict[CellCoord, int]] = None,
) -> float:
    """The optimistic similarity bound ``sigma_bar`` (Algorithm 2, line 13)."""
    total = size_user + size_cand
    if total == 0:
        return 0.0
    if own_counts is None:
        own = sum(index.cell_user_count(c, user) for c in own_cells)
    else:
        own = sum(own_counts.get(c, 0) for c in own_cells)
    other = sum(index.cell_user_count(c, candidate) for c in cand_cells)
    return (own + other) / total


def sppj_f(
    dataset: STDataset,
    query: STPSJoinQuery,
    stats: Optional[PairEvalStats] = None,
    refine: str = "ppj-b",
) -> List[UserPair]:
    """Evaluate an STPSJoin query with S-PPJ-F.

    Parameters
    ----------
    refine:
        Pair evaluator used in the refinement step: ``"ppj-b"`` (the
        paper's choice, with early termination) or ``"ppj-c"`` (full
        evaluation) — the ablation knob showing what PPJ-B's pruning
        contributes inside the filter-and-refine scheme.
    """
    if refine not in ("ppj-b", "ppj-c"):
        raise ValueError(f"unknown refine strategy: {refine!r}")
    index = STGridIndex(dataset.bounds, query.eps_loc, with_tokens=True)
    results: List[UserPair] = []
    sizes = {u: len(dataset.user_objects(u)) for u in dataset.users}
    # Report pairs in the dataset's user total order, whatever the
    # insertion order was.
    rank = {u: i for i, u in enumerate(dataset.users)}

    for user in dataset.users:
        objects = dataset.user_objects(user)
        # Per-cell object counts of the incoming user, computed once.
        own_counts: Dict[CellCoord, int] = {}
        for obj in objects:
            cell = index.grid.cell_of(obj.x, obj.y)
            own_counts[cell] = own_counts.get(cell, 0) + 1

        candidates = collect_candidates(index, dataset, user)
        index.add_user(user, objects)

        if stats is not None:
            stats.candidates += len(candidates)
        for cand, (own_cells, cand_cells) in candidates.items():
            bound = candidate_bound(
                index,
                user,
                cand,
                own_cells,
                cand_cells,
                sizes[user],
                sizes[cand],
                own_counts=own_counts,
            )
            if bound < query.eps_user:
                if stats is not None:
                    stats.bound_pruned += 1
                continue
            if stats is not None:
                stats.refinements += 1
            if refine == "ppj-b":
                score = ppj_b_pair(
                    index,
                    cand,
                    user,
                    query.eps_loc,
                    query.eps_doc,
                    query.eps_user,
                    sizes[cand],
                    sizes[user],
                    stats,
                )
            else:
                total = sizes[cand] + sizes[user]
                matched = ppj_c_pair(
                    index, cand, user, query.eps_loc, query.eps_doc, stats
                )
                score = matched / total if total else 0.0
            if score >= query.eps_user:
                first, second = (
                    (cand, user) if rank[cand] < rank[user] else (user, cand)
                )
                results.append(UserPair(first, second, score))
    return results
