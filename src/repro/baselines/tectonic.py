"""TECTONIC (Tsourakakis et al.): motif-aware clustering baseline.

Mechanism, per the original paper: weight every edge by the number of
triangles it participates in, normalized by its endpoints' degrees
(triangle conductance), delete edges whose weight falls below the
threshold θ, and return the connected components of what remains. The θ
sweep trades precision against recall (paper Figure 10).

All heavy steps run as DataFrame ops: triangle counting
(``repro.graphs.triangles``), the normalization join, and connected
components (``repro.graphs.components``).
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from ..graphs.components import connected_components
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
