"""The spatio-textual partition-leaf index of S-PPJ-D (Section 4.1.4).

Instead of grid cells, S-PPJ-D partitions the database by the leaf nodes
of a data-partitioning structure — an R-tree in the paper, with the
``fanout`` parameter of Figure 6 controlling granularity; a quadtree is
supported as the alternative partitioner of the related work (Rao et al.).
The index ``I`` keeps, per leaf:

* an inverted list token -> users with an object containing the token;
* the objects of every user inside the leaf (``D^l_u``);

plus, per user, the sorted list of leaves holding their objects, and the
precomputed *relevance* relation between leaves: two leaves are relevant
when their ``eps_loc``-extended MBRs intersect — computed with the
Brinkhoff R-tree join for the R-tree, and with a plane sweep for the
quadtree (whose leaves carry no internal hierarchy to traverse).

PPJ-D joins a leaf pair only inside ``A``, the intersection of the two
extended MBRs, so the index also caches, lazily per ``(leaf, user)``,
the clipped :class:`~repro.stindex.stgrid.CellPack` of ``D^l_u`` for
every relevant partner leaf (:meth:`STLeafIndex.clip_packs`).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Set, Tuple

from ..core.model import STDataset, STObject, UserId
from ..obs import runtime as _obs
from ..spatial.geometry import Rect
from ..spatial.quadtree import QuadTree
from ..spatial.rtree import RTree
from ..spatial.spatial_join import rtree_relevant_leaf_pairs, sweep_rect_pairs
from .stgrid import CellPack

__all__ = ["STLeafIndex"]


class STLeafIndex:
    """Leaf-level spatio-textual index over a data-driven partitioning.

    Parameters
    ----------
    fanout:
        Maximum objects per partition (R-tree fanout / quadtree capacity).
    partitioner:
        ``"rtree"`` (the paper's choice) or ``"quadtree"``.
    """

    def __init__(
        self,
        dataset: STDataset,
        eps_loc: float,
        fanout: int = 100,
        partitioner: str = "rtree",
    ):
        if partitioner not in ("rtree", "quadtree"):
            raise ValueError(f"unknown partitioner: {partitioner!r}")
        self.dataset = dataset
        self.eps_loc = float(eps_loc)
        self.fanout = int(fanout)
        self.partitioner = partitioner

        with _obs.phase("index.build.leaf"):
            if partitioner == "rtree":
                entries = [(o.x, o.y, o) for o in dataset.objects]
                self.tree = RTree.bulk_load(entries, fanout=fanout)
            else:
                self.tree = QuadTree(dataset.bounds, capacity=fanout)
                for o in dataset.objects:
                    self.tree.insert(o.x, o.y, o)
            leaves = self.tree.leaves()
            self.num_leaves = len(leaves)

            #: eps_loc-extended MBR of every leaf, indexed by leaf id.
            self.extended: List[Rect] = [
                leaf.mbr.extend(self.eps_loc) for leaf in leaves  # type: ignore[union-attr]
            ]

            # leaf id -> user -> objects (D^l_u).
            self._leaf_objects: List[Dict[UserId, List[STObject]]] = [
                {} for _ in range(self.num_leaves)
            ]
            # leaf id -> token -> users (U^l_t).
            self._leaf_token_users: List[Dict[int, Set[UserId]]] = [
                {} for _ in range(self.num_leaves)
            ]
            # user -> sorted leaf ids (Lu).
            self._user_leaves: Dict[UserId, List[int]] = {}

            for leaf in leaves:
                lid = leaf.leaf_id
                per_user = self._leaf_objects[lid]
                token_map = self._leaf_token_users[lid]
                for _, _, obj in leaf.entries:
                    per_user.setdefault(obj.user, []).append(obj)
                    for token in obj.doc:
                        token_map.setdefault(token, set()).add(obj.user)
                for user in per_user:
                    self._user_leaves.setdefault(user, []).append(lid)
            for leaf_ids in self._user_leaves.values():
                leaf_ids.sort()
            # user -> |D^l_u| per leaf, aligned with _user_leaves.
            self._user_leaf_sizes: Dict[UserId, List[int]] = {
                user: [len(self._leaf_objects[lid][user]) for lid in leaf_ids]
                for user, leaf_ids in self._user_leaves.items()
            }

            # Relevance relation: leaf -> sorted relevant leaf ids (incl. self).
            self._relevant: List[List[int]] = [[] for _ in range(self.num_leaves)]
            for a, b in self._relevant_pairs():
                self._relevant[a].append(b)
                if a != b:
                    self._relevant[b].append(a)
            for rel in self._relevant:
                rel.sort()

        # (leaf, user) -> partner leaf -> CellPack of D^l_u clipped to the
        # pair's intersection area; filled lazily by clip_packs().
        self._clip_packs: Dict[Tuple[int, UserId], Dict[int, CellPack]] = {}

    def _relevant_pairs(self) -> Set[Tuple[int, int]]:
        """Unordered pairs of leaves with intersecting extended MBRs."""
        if self.partitioner == "rtree":
            return rtree_relevant_leaf_pairs(self.tree, self.eps_loc)
        pairs: Set[Tuple[int, int]] = set()
        for a, b in sweep_rect_pairs(self.extended, self.extended):
            pairs.add((a, b) if a <= b else (b, a))
        return pairs

    # -- accessors ----------------------------------------------------------------

    def user_leaves(self, user: UserId) -> List[int]:
        """``I.getLeafs(u)``: sorted ids of leaves holding ``user``'s objects."""
        return self._user_leaves.get(user, [])

    def user_leaf_sizes(self, user: UserId) -> List[int]:
        """``|D^l_u|`` for every leaf of :meth:`user_leaves`, same order."""
        return self._user_leaf_sizes.get(user, [])

    def leaf_objects(self, leaf_id: int, user: UserId) -> List[STObject]:
        """``D^l_u``: objects of ``user`` inside leaf ``leaf_id``."""
        return self._leaf_objects[leaf_id].get(user, [])

    def leaf_user_count(self, leaf_id: int, user: UserId) -> int:
        """``|D^l_u|``."""
        objs = self._leaf_objects[leaf_id].get(user)
        return len(objs) if objs else 0

    def leaf_users(self, leaf_id: int) -> List[UserId]:
        """Users with at least one object in the leaf."""
        return list(self._leaf_objects[leaf_id].keys())

    def token_users(self, leaf_id: int, token: int) -> Set[UserId]:
        """``U^l_t``: users whose objects in the leaf contain ``token``."""
        return self._leaf_token_users[leaf_id].get(token, set())

    def user_leaf_tokens(self, user: UserId, leaf_id: int) -> Set[int]:
        """Tokens of ``user``'s objects inside the leaf."""
        tokens: Set[int] = set()
        for obj in self.leaf_objects(leaf_id, user):
            tokens.update(obj.doc)
        return tokens

    def relevant_leaves(self, leaf_id: int) -> List[int]:
        """``I.getRelevantLeafs``: leaves with intersecting extended MBRs."""
        return self._relevant[leaf_id]

    def clip_packs(self, leaf_id: int, user: UserId) -> Dict[int, CellPack]:
        """``{partner leaf -> pack}``: ``D^l_u`` clipped to each area ``A``.

        ``A`` is the intersection of the extended MBRs of ``leaf_id`` and a
        relevant partner; objects outside it cannot match anything in the
        partner leaf.  Only non-empty clips are kept, keyed in ascending
        partner order, and a clip that keeps every object shares the one
        full pack of ``D^l_u``.  Built on first touch and kept: the index
        is fixed to one ``eps_loc``, so the clips serve every later query.
        Concurrent callers may both build an entry; ``setdefault`` keeps
        the first, so all of them use the same packs.
        """
        key = (leaf_id, user)
        packs = self._clip_packs.get(key)
        if packs is None:
            packs = self._clip_packs.setdefault(
                key, self._build_clips(leaf_id, user)
            )
        return packs

    def _build_clips(self, leaf_id: int, user: UserId) -> Dict[int, CellPack]:
        objs = self._leaf_objects[leaf_id].get(user)
        packs: Dict[int, CellPack] = {}
        if not objs:
            return packs
        _obs.count("cache.leaf_clip_builds")
        own = self.extended[leaf_id]
        full = None
        for other in self._relevant[leaf_id]:
            area = own.intersection(self.extended[other])
            if area is None:
                continue
            inside = [o for o in objs if area.contains_point(o.x, o.y)]
            if len(inside) == len(objs):
                if full is None:
                    full = CellPack(objs)
                packs[other] = full
            elif inside:
                packs[other] = CellPack(inside)
        return packs

    def leaf_candidates(
        self, user: UserId, keep: Callable[[UserId], bool]
    ) -> Dict[UserId, Tuple[Set[int], Set[int]]]:
        """Filter step of S-PPJ-D: probe relevant leaves' token lists.

        Returns ``{candidate -> (M^u, M^cand)}``: the leaves of ``user``
        and of the candidate through which they share a token, in
        first-encounter order.  ``keep`` decides, once per distinct user
        met, whether it may be a candidate (a rank or processed-set test
        that makes each unordered pair come up once).
        """
        candidates: Dict[UserId, Tuple[Set[int], Set[int]]] = {}
        rejected: Set[UserId] = set()
        for leaf in self.user_leaves(user):
            tokens = self.user_leaf_tokens(user, leaf)
            if not tokens:
                continue
            for other_leaf in self._relevant[leaf]:
                token_map = self._leaf_token_users[other_leaf]
                for token in tokens:
                    for cand in token_map.get(token, ()):
                        entry = candidates.get(cand)
                        if entry is None:
                            if cand in rejected:
                                continue
                            if not keep(cand):
                                rejected.add(cand)
                                continue
                            entry = candidates[cand] = (set(), set())
                        entry[0].add(leaf)
                        entry[1].add(other_leaf)
        return candidates
