"""Seeded inputs: synthetic corpora as raw records, and request sequences.

The benchmark never asks the program under test to make its inputs.
Corpora are generated here, from the run's ``--seed``, as plain
``(user, x, y, keywords)`` records (or TSV files written from them), so
a change to the program's own generator cannot change what is measured.

The three presets mirror the paper's corpora (Flickr-like: long tag
lists around points of interest; Twitter-like: short texts around urban
hotspots; GeoText-like: very short texts over a continent-sized extent).
The user profiles are the same for every seed: the objects-per-user
counts sit at evenly spaced quantiles of the lognormal, each user's
hotspots (by popularity rank) come from a fixed stream, and so do the
user ids, hence the program's user order.  The seed draws everything
else: where the hotspots are (one per cell of a coarse grid, so two
never merge), their token pools, and every object's placement and
keywords.  How heavy users share hotspots is what dominates join cost,
and where the heaviest users sit in the user order sets the size of the
numpy kernels' largest row batch (hence peak memory), so fixing the
profiles and the order keeps the seed-to-seed spread of the timings and
of memory small without fixing the data.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

Record = Tuple[object, float, float, Tuple[str, ...]]


@dataclass(frozen=True)
class Preset:
    objects_mean: float
    objects_std: float
    tokens_mean: float
    tokens_std: float
    vocabulary: int
    zipf: float
    hotspots: int
    spread: float
    affinity: float
    user_hotspots: int
    pool_size: int
    pool_prob: float
    extent: float
    #: Base thresholds (eps_loc, eps_doc, eps_user), the same per-preset
    #: defaults the paper-figure benchmarks use.
    thresholds: Tuple[float, float, float]


PRESETS: Dict[str, Preset] = {
    "flickr": Preset(25.0, 40.0, 8.0, 6.0, 4000, 1.1, 40, 0.0004, 0.95, 2,
                     10, 0.95, 0.25, (0.004, 0.60, 0.60)),
    "twitter": Preset(30.0, 42.0, 2.1, 1.4, 8000, 1.05, 120, 0.0008, 0.6, 6,
                      40, 0.5, 0.25, (0.004, 0.40, 0.40)),
    "geotext": Preset(17.5, 13.0, 1.6, 1.0, 6000, 1.05, 250, 0.01, 0.35, 5,
                      40, 0.35, 8.0, (0.15, 0.20, 0.20)),
}


def _lognormal(mean: float, std: float) -> Tuple[float, float]:
    sigma_sq = math.log(1.0 + (std / mean) ** 2)
    return math.log(mean) - sigma_sq / 2.0, math.sqrt(sigma_sq)


def _zipf_cdf(n: int, exponent: float) -> np.ndarray:
    weights = np.arange(1, n + 1, dtype=np.float64) ** (-exponent)
    return np.cumsum(weights / weights.sum())


def _stratified_counts(n: int, mean: float, std: float) -> np.ndarray:
    """``n`` lognormal draws at the quantiles ``(i + 0.5) / n``."""
    from statistics import NormalDist

    mu, sigma = _lognormal(mean, std)
    normal = NormalDist()
    z = np.array([normal.inv_cdf((i + 0.5) / n) for i in range(n)])
    return np.maximum(1, np.rint(np.exp(mu + sigma * z))).astype(np.int64)


def preset_of(key: str) -> str:
    """The preset of a corpus key: a preset name, or one with a ``.N``
    suffix naming a further corpus of that preset."""
    return key.split(".")[0]


def corpus(key: str, users: int, seed: int) -> List[Record]:
    """Records of one synthetic corpus; the same arguments give the same list.

    ``key`` is a preset name, or ``<preset>.<n>`` for the ``n``-th further
    corpus of that preset on the same seed: the same profiles, its own
    draws of everything else.

    User ids are a fixed permutation of ``0 .. users-1``, the same for
    every seed, so the program's user order (ascending id) is too.
    """
    preset, _, copy = key.partition(".")
    spec = PRESETS[preset]
    which = sorted(PRESETS).index(preset)
    # The profiles (objects per user, which hotspots by popularity rank
    # each user frequents, and the user ids) come from a fixed stream, so
    # every seed has the same profiles in the same order; the seed draws
    # the rest.
    profile_rng = np.random.default_rng([users, which])
    rng = np.random.default_rng([seed, users, which] + ([int(copy)] if copy else []))
    hotspot_p = np.arange(1, spec.hotspots + 1, dtype=np.float64) ** -1.0
    hotspot_p /= hotspot_p.sum()
    counts = profile_rng.permutation(
        _stratified_counts(users, spec.objects_mean, spec.objects_std)
    )
    profiles = [
        profile_rng.choice(spec.hotspots, size=spec.user_hotspots, replace=False, p=hotspot_p)
        for _ in range(users)
    ]
    # Hotspots sit in distinct cells of a square grid, jittered inside the
    # middle half of their cell, so no two merge into one busier place.
    side = math.ceil(math.sqrt(spec.hotspots))
    cells = rng.permutation(side * side)[: spec.hotspots]
    corner = np.stack([cells % side, cells // side], axis=1).astype(np.float64)
    hotspot_xy = (corner + 0.25 + 0.5 * rng.random((spec.hotspots, 2))) * (spec.extent / side)
    pools = rng.integers(0, spec.vocabulary, size=(spec.hotspots, spec.pool_size))
    pool_cdf = _zipf_cdf(spec.pool_size, 1.2)
    vocab_cdf = _zipf_cdf(spec.vocabulary, spec.zipf)
    ids = profile_rng.permutation(users)
    mu_tok, sigma_tok = _lognormal(spec.tokens_mean, spec.tokens_std)

    records: List[Record] = []
    for u in range(users):
        n = int(counts[u])
        mine = profiles[u]
        at_hot = rng.random(n) < spec.affinity
        spot = rng.choice(mine, size=n)
        xy = np.where(
            at_hot[:, None],
            hotspot_xy[spot] + rng.normal(0.0, spec.spread, size=(n, 2)),
            rng.uniform(0.0, spec.extent, size=(n, 2)),
        )
        xy = np.clip(xy, 0.0, spec.extent)
        n_tok = np.maximum(1, np.rint(rng.lognormal(mu_tok, sigma_tok, size=n)))
        for i in range(n):
            t = int(n_tok[i])
            from_pool = at_hot[i] & (rng.random(t) < spec.pool_prob)
            pool_rank = np.minimum(
                np.searchsorted(pool_cdf, rng.random(t)), spec.pool_size - 1
            )
            global_rank = np.minimum(
                np.searchsorted(vocab_cdf, rng.random(t)), spec.vocabulary - 1
            )
            tokens = np.where(from_pool, pools[spot[i], pool_rank], global_rank)
            keywords = tuple(sorted({f"t{int(tok)}" for tok in tokens}))
            records.append(
                (int(ids[u]), float(xy[i, 0]), float(xy[i, 1]), keywords)
            )
    return records


def variant(records: List[Record], seed: int, share: float = 0.02) -> List[Record]:
    """A second version of a corpus: ``share`` of the objects dropped.

    Used as the alternate dataset version a server re-registers, so its
    content fingerprint differs while its cost profile stays the same.
    """
    rng = random.Random(seed * 7919 + 17)
    kept = [r for r in records if rng.random() >= share]
    users_before = {r[0] for r in records}
    users_after = {r[0] for r in kept}
    # Keep every user present so probe ids stay valid across versions.
    for r in records:
        if r[0] in users_before - users_after:
            kept.append(r)
            users_after.add(r[0])
    return kept


#: How far thresholds stray from the per-preset defaults, as a share.
#: Like queries then cost nearly the same, so a median pools the asks of
#: several queries instead of falling on one query of the group.
JITTER = 0.04


def jitter(rng: random.Random, base: float, spread: float = JITTER) -> float:
    """``base`` scaled by a uniform factor in ``[1 - spread, 1 + spread]``."""
    return base * rng.uniform(1.0 - spread, 1.0 + spread)


def stratified(rng: random.Random, n: int, spread: float = JITTER) -> List[float]:
    """``n`` factors in ``[1 - spread, 1 + spread]``, one per equal stratum.

    Latin-hypercube style: each of ``n`` equal sub-intervals holds exactly
    one factor, at a random point, and the seed shuffles their order.  A
    group of queries then covers the whole jitter range on every seed.
    """
    factors = [1.0 - spread + 2.0 * spread * (j + rng.random()) / n for j in range(n)]
    rng.shuffle(factors)
    return factors


def eps_locs(preset: str) -> Tuple[float, float, float]:
    """The three eps_loc values a workload uses for ``preset``.

    eps_loc is the grid cell side, so each value needs its own warm
    index; three fixed values keep the index set small and known.
    """
    base = PRESETS[preset_of(preset)].thresholds[0]
    return (base * (1.0 - JITTER), base, base * (1.0 + JITTER))
