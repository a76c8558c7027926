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
  ``variant="wild"`` ignores conflicts (ClusterWild!). Neighbor
  resolution and pivot validity are computed as distributed passes over
  the edge DataFrame with broadcast state.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql.types import LongType, StructField, StructType

from ..graphs.gen import GenGraph
from ..graphs.ops import GraphData
from ..core.state import map_edge_partitions, undirected_block

_UNSET = -1

_PAIR_SCHEMA = StructType(
    [StructField("v", LongType(), False), StructField("r", LongType(), False)]
)


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


def parallel_pivot(
    g: GraphData,
    *,
    variant: str = "c4",
    seed: int = 0,
    prefix_frac: float = 0.25,
    max_rounds: int = 200,
) -> tuple[np.ndarray, int]:
    """Round-based parallel pivots; returns (labels, rounds used)."""
    if variant not in ("c4", "wild"):
        raise ValueError(variant)
    n = g.n
    rng = np.random.default_rng(seed)
    rank = rng.permutation(n).astype("int64")  # rank[v] = position of v
    labels = np.full(n, _UNSET, dtype="int64")
    is_pivot = np.zeros(n, dtype=bool)
    inv_rank = np.empty(n, dtype="int64")
    inv_rank[rank] = np.arange(n)
    sc = g.edges.sparkSession.sparkContext
    big = np.iinfo(np.int64).max
    rounds = 0
    for _ in range(max_rounds):
        remaining = np.flatnonzero(labels == _UNSET)
        if len(remaining) == 0:
            break
        rounds += 1
        thresh = np.partition(rank[remaining], max(0, int(len(remaining) * prefix_frac)))[
            max(0, int(len(remaining) * prefix_frac))
        ]
        active = (labels == _UNSET) & (rank <= thresh)

        if variant == "c4":
            # Serializability needs, per unclustered vertex, the min rank
            # over *unclustered* neighbors (potential future pivots) and
            # over *pivot* neighbors (already decided).
            bc = sc.broadcast((labels, rank, is_pivot))

            def min_nbr_ranks(pdf: pd.DataFrame) -> pd.DataFrame:
                lb, rk, pv = bc.value
                s = pdf["src"].to_numpy()
                d = pdf["dst"].to_numpy()
                out = []
                for kind, keep in (("u", lb[d] == _UNSET), ("p", pv[d])):
                    if keep.any():
                        grp = (
                            pd.DataFrame({"v": s[keep], "r": rk[d[keep]]})
                            .groupby("v", sort=False)["r"]
                            .min()
                            .reset_index()
                        )
                        grp["v"] = grp["v"] * 2 + (0 if kind == "u" else 1)
                        out.append(grp)
                if not out:
                    return pd.DataFrame({"v": [], "r": []}).astype("int64")
                return pd.concat(out).astype("int64")

            try:
                pdf = map_edge_partitions(
                    g.edges, min_nbr_ranks, _PAIR_SCHEMA
                ).toPandas()
            finally:
                bc.destroy()
            min_unc = np.full(n, big, dtype="int64")
            min_piv = np.full(n, big, dtype="int64")
            if len(pdf):
                kinds = pdf["v"].to_numpy() % 2
                vids = pdf["v"].to_numpy() // 2
                rs = pdf["r"].to_numpy()
                np.minimum.at(min_unc, vids[kinds == 0], rs[kinds == 0])
                np.minimum.at(min_piv, vids[kinds == 1], rs[kinds == 1])
            # A vertex pivots iff its turn would come before any neighbor
            # that is (or could still become) a pivot.
            pivots = active & (rank < min_unc) & (rank < min_piv)
        else:
            min_unc = None
            pivots = active

        piv_ids = np.flatnonzero(pivots)
        labels[piv_ids] = piv_ids
        is_pivot[piv_ids] = True
        # Unclustered vertices adjacent to a pivot join the min-rank one.
        bc2 = sc.broadcast((labels, rank, is_pivot))

        def best_pivot(pdf: pd.DataFrame) -> pd.DataFrame:
            lb, rk, pv = bc2.value
            s = pdf["src"].to_numpy()
            d = pdf["dst"].to_numpy()
            keep = (lb[s] == _UNSET) & pv[d]
            if not keep.any():
                return pd.DataFrame({"v": [], "r": []}).astype("int64")
            out = (
                pd.DataFrame({"v": s[keep], "r": rk[d[keep]]})
                .groupby("v", sort=False)["r"]
                .min()
                .reset_index()
            )
            return out.astype("int64")

        try:
            joins = map_edge_partitions(g.edges, best_pivot, _PAIR_SCHEMA).toPandas()
        finally:
            bc2.destroy()
        if len(joins):
            best = joins.groupby("v", sort=False)["r"].min()
            vs = best.index.to_numpy()
            rs = best.to_numpy()
            if variant == "c4":
                # Serializability gate: v may join pivot p only if no
                # still-unclustered neighbor could pivot before p. min_unc
                # is the round-start view, so a neighbor that just became
                # a pivot this round appears on both sides (<=, ranks are
                # distinct so equality means "same vertex").
                keep = rs <= min_unc[vs]
                vs, rs = vs[keep], rs[keep]
            labels[vs] = inv_rank[rs]
    # Any stragglers become singletons (only if max_rounds was hit).
    left = labels == _UNSET
    labels[left] = np.flatnonzero(left)
    return labels, rounds
