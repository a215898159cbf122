"""Query parameter objects and result types for (top-k) STPSJoin.

Definition 1 of the paper specifies the STPSJoin query as a tuple
``Q = <eps_loc, eps_doc, eps_u>``; Definition 2 replaces the user
similarity threshold with a result cardinality ``k``.  Results are pairs
of users with their exact set-similarity score; the user pair is always
reported in the dataset's total user order (``user_a`` before ``user_b``)
so results can be compared as sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Tuple

from .model import UserId

__all__ = [
    "STPSJoinQuery",
    "TopKQuery",
    "UserPair",
    "pairs_to_dict",
    "pair_sort_key",
]


def _check_thresholds(eps_loc: float, eps_doc: float) -> None:
    if not math.isfinite(eps_loc) or eps_loc < 0:
        raise ValueError("eps_loc must be a finite non-negative number")
    if not 0.0 < eps_doc <= 1.0:
        raise ValueError("eps_doc must be in (0, 1]")


@dataclass(frozen=True)
class STPSJoinQuery:
    """Threshold-based STPSJoin parameters (Definition 1)."""

    eps_loc: float
    eps_doc: float
    eps_user: float

    def __post_init__(self) -> None:
        _check_thresholds(self.eps_loc, self.eps_doc)
        if not 0.0 < self.eps_user <= 1.0:
            raise ValueError("eps_user must be in (0, 1]")


@dataclass(frozen=True)
class TopKQuery:
    """Top-k STPSJoin parameters (Definition 2)."""

    eps_loc: float
    eps_doc: float
    k: int

    def __post_init__(self) -> None:
        _check_thresholds(self.eps_loc, self.eps_doc)
        if self.k < 1:
            raise ValueError("k must be positive")


@dataclass(frozen=True)
class UserPair:
    """A result pair with its exact similarity score.

    ``user_a`` precedes ``user_b`` in the dataset's user total order.
    """

    user_a: UserId
    user_b: UserId
    score: float

    @property
    def key(self) -> Tuple[UserId, UserId]:
        """The score-free identity of the pair."""
        return (self.user_a, self.user_b)


def pair_sort_key(pair: UserPair) -> Tuple[float, str, str]:
    """The canonical result ordering: descending score, then user ids.

    Every result surface (the :mod:`repro.core.api` facade, the top-k
    heap, the exhaustive oracles and the parallel execution engine) sorts
    — and breaks score ties — with this one key, so any two algorithms
    answering the same query return *identical* pair lists, not merely
    equal sets.  User ids are compared as strings because a dataset may
    mix identifier types.
    """
    return (-pair.score, str(pair.user_a), str(pair.user_b))


def pairs_to_dict(pairs: Iterable[UserPair]) -> Dict[Tuple[UserId, UserId], float]:
    """Map pair keys to scores — the canonical form tests compare on."""
    return {p.key: p.score for p in pairs}
