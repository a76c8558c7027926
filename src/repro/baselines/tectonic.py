"""TECTONIC (Tsourakakis et al.): motif-aware clustering baseline.

Mechanism, per the original paper: weight every edge by the number of
triangles it participates in, normalized by its endpoints' degrees
(triangle conductance), delete edges whose weight falls below the
threshold θ, and return the connected components of what remains. The θ
sweep trades precision against recall (paper Figure 10).

Triangle counting (``repro.graphs.triangles``) and the normalization join
run as DataFrame ops. The pruned graph is held as the engine's level 0
(:func:`~repro.core.state.level0`), and its connected components are
found by min-label propagation over the level's blocks.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from ..core.state import Block, level0
from ..graphs.ops import GraphData, by_src
from ..graphs.triangles import edge_triangle_counts


def tectonic_weights(g: GraphData) -> DataFrame:
    """Per-edge normalized triangle weight: (u, v, score), u < v.

    score(u,v) = 2·t(u,v) / (d_u + d_v); edges in no triangle score 0.
    """
    g = by_src(g)
    deg = g.edges.groupBy("src").agg(F.count("*").alias("d"))
    und = g.edges.where(F.col("src") < F.col("dst")).select(
        F.col("src").alias("u"), F.col("dst").alias("v")
    )
    tri = edge_triangle_counts(g)
    return (
        und.join(tri, ["u", "v"], "left")
        .na.fill({"tri": 0})
        .join(deg.withColumnRenamed("src", "u").withColumnRenamed("d", "du"), "u")
        .join(deg.withColumnRenamed("src", "v").withColumnRenamed("d", "dv"), "v")
        .select(
            "u",
            "v",
            (2.0 * F.col("tri") / (F.col("du") + F.col("dv"))).alias("score"),
        )
    )


def _min_nbr_label(b: Block, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per source vertex of ``b``: the min label over its neighbors."""
    return b.verts, np.minimum.reduceat(labels[b.dst], b.indptr[:-1])


def connected_components(g: GraphData, *, max_rounds: int = 60) -> np.ndarray:
    """Label each vertex with the min vertex id of its component.

    ``g`` is held as a level 0 of ``defaultParallelism`` blocks: in the
    driver below ``state.DRIVER_ROWS`` rows, else a persisted block RDD,
    released however the call ends. Each round takes every vertex's min
    neighbor label in one block step, then jumps pointers in the driver
    (lbl(v) ← lbl(lbl(v)), O(log diameter) rounds instead of O(diameter)).
    It stops after the round whose min-neighbor step changed nothing.
    Returns a dense numpy int64 array of length n; isolated vertices keep
    their own id as label.
    """
    level = level0(g, partitions=g.edges.sparkSession.sparkContext.defaultParallelism)
    labels = np.arange(g.n, dtype="int64")
    try:
        for _ in range(max_rounds):
            new = labels.copy()
            for verts, nbr in level.map_blocks(_min_nbr_label, labels):
                new[verts] = np.minimum(new[verts], nbr)
            changed = bool((new != labels).any())
            labels = np.minimum(new, new[new])
            if not changed:
                break
    finally:
        level.unpersist()
    return labels


def cluster_from_weights(
    g: GraphData, weights: DataFrame, theta: float
) -> np.ndarray:
    """Prune edges with score < θ and label vertices by component."""
    kept = weights.where(F.col("score") >= theta).select(
        F.col("u").alias("src"), F.col("v").alias("dst"), F.lit(1.0).alias("w")
    )
    sym = kept.unionByName(
        kept.select(
            F.col("dst").alias("src"), F.col("src").alias("dst"), F.col("w")
        )
    )
    pruned = GraphData(edges=sym, n=g.n, name=f"{g.name}-tectonic")
    return connected_components(pruned)


def tectonic(g: GraphData, theta: float) -> np.ndarray:
    """End-to-end TECTONIC at one θ (sweeps should reuse tectonic_weights)."""
    w = tectonic_weights(g).cache()
    try:
        return cluster_from_weights(g, w, theta)
    finally:
        w.unpersist()
