"""Pivot-based correlation clustering: KwikCluster, C4, ClusterWild!.

The paper's §C.1 foil: these optimize the same CC objective only at
λ = 0.5 on unweighted graphs, run much faster than PAR-CC, and produce
poor (often negative) CC objective and poor precision/recall.

- :func:`kwikcluster` — Ailon et al.'s sequential PIVOT: walk a random
  permutation; each still-unclustered vertex becomes a pivot and absorbs
  its unclustered neighbors.
- :func:`parallel_pivot` — the round-based parallel scheme of Pan et al.:
  each round activates a prefix of the remaining permutation;
  ``variant="c4"`` keeps only pivots with no smaller-rank unclustered
  neighbor (concurrency control ⇒ serializable with KwikCluster),
  ``variant="wild"`` ignores conflicts (ClusterWild!). The input is held
  once as the engine's level-0 blocks (:func:`~repro.core.state.level0`);
  each round's pivot test and join are one block job each
  (:meth:`~repro.core.state.LevelGraph.map_blocks`) with the round's
  state broadcast.
"""
from __future__ import annotations

import numpy as np

from ..graphs.gen import GenGraph
from ..graphs.ops import GraphData
from ..core.state import Block, LevelGraph, level0, undirected_block

_UNSET = -1
_NONE = np.iinfo(np.int64).max  # min rank over no neighbor


def kwikcluster(g: GenGraph, *, seed: int = 0) -> np.ndarray:
    """Sequential PIVOT/KwikCluster; returns a cluster label per vertex."""
    rng = np.random.default_rng(seed)
    n = g.n
    b = undirected_block(g.edges)
    indptr, dst = np.searchsorted(b.src, np.arange(n + 1)), b.dst
    labels = np.full(n, _UNSET, dtype="int64")
    for p in rng.permutation(n):
        if labels[p] != _UNSET:
            continue
        labels[p] = p
        nbrs = dst[indptr[p] : indptr[p + 1]]
        free = nbrs[labels[nbrs] == _UNSET]
        labels[free] = p
    return labels


def _min_nbr_ranks(
    b: Block, state: tuple[np.ndarray, np.ndarray, np.ndarray]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per source vertex of ``b``: the min rank over its unclustered neighbors
    and over its pivot neighbors (``_NONE`` where it has none)."""
    labels, rank, is_pivot = state
    r = rank[b.dst]
    starts = b.indptr[:-1]
    min_unc = np.minimum.reduceat(np.where(labels[b.dst] == _UNSET, r, _NONE), starts)
    min_piv = np.minimum.reduceat(np.where(is_pivot[b.dst], r, _NONE), starts)
    return b.verts, min_unc, min_piv


def _round_min_ranks(
    level: LevelGraph, labels: np.ndarray, rank: np.ndarray, is_pivot: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_min_nbr_ranks` of every vertex, in one job over the level's blocks."""
    min_unc = np.full(level.n, _NONE, dtype="int64")
    min_piv = np.full(level.n, _NONE, dtype="int64")
    for verts, unc, piv in level.map_blocks(_min_nbr_ranks, (labels, rank, is_pivot)):
        min_unc[verts] = unc
        min_piv[verts] = piv
    return min_unc, min_piv


def parallel_pivot(
    g: GraphData,
    *,
    variant: str = "c4",
    seed: int = 0,
    prefix_frac: float = 0.25,
    max_rounds: int = 200,
) -> tuple[np.ndarray, int]:
    """Round-based parallel pivots; returns (labels, rounds used).

    The level-0 blocks take the input's own partitions: one job builds them,
    then each round runs one block step for ClusterWild! and two for C4, a
    job each when the level is in Spark and none when it has fewer than
    ``state.DRIVER_ROWS`` rows and is held in the driver. The level is
    released on return, whether the call succeeds or fails.
    """
    if variant not in ("c4", "wild"):
        raise ValueError(variant)
    n = g.n
    rng = np.random.default_rng(seed)
    rank = rng.permutation(n).astype("int64")  # rank[v] = position of v
    labels = np.full(n, _UNSET, dtype="int64")
    is_pivot = np.zeros(n, dtype=bool)
    inv_rank = np.empty(n, dtype="int64")
    inv_rank[rank] = np.arange(n)
    level = level0(g, partitions=g.edges.rdd.getNumPartitions())
    rounds = 0
    try:
        for _ in range(max_rounds):
            remaining = np.flatnonzero(labels == _UNSET)
            if len(remaining) == 0:
                break
            rounds += 1
            cut = max(0, int(len(remaining) * prefix_frac))
            thresh = np.partition(rank[remaining], cut)[cut]
            pivots = (labels == _UNSET) & (rank <= thresh)
            if variant == "c4":
                # A vertex pivots iff its turn would come before any neighbor
                # that is (or could still become) a pivot.
                min_unc, min_piv = _round_min_ranks(level, labels, rank, is_pivot)
                pivots &= (rank < min_unc) & (rank < min_piv)
            piv_ids = np.flatnonzero(pivots)
            labels[piv_ids] = piv_ids
            is_pivot[piv_ids] = True
            # Unclustered vertices adjacent to a pivot join the min-rank one.
            _, best = _round_min_ranks(level, labels, rank, is_pivot)
            join = (labels == _UNSET) & (best < _NONE)
            if variant == "c4":
                # Serializability gate: v may join pivot p only if no
                # still-unclustered neighbor could pivot before p. min_unc
                # is the round-start view, so a neighbor that just became
                # a pivot this round appears on both sides (<=, ranks are
                # distinct so equality means "same vertex").
                join &= best <= min_unc
            labels[join] = inv_rank[best[join]]
    finally:
        level.unpersist()
    # Any stragglers become singletons (only if max_rounds was hit).
    left = labels == _UNSET
    labels[left] = np.flatnonzero(left)
    return labels, rounds
