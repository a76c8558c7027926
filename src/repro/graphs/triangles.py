"""Per-edge and per-vertex triangle counts with degree-ordered DataFrame joins.

Substrate for the Tectonic and SCD baselines, which pass their edges
through ``ops.by_src`` first so that the ``src`` groupings and joins here
keep the input's partitioning. The standard ordered
enumeration is used: direct each undirected edge from the lower-rank to
the higher-rank endpoint (rank = (degree, id)), join wedges
(a->b, a->c with rank(b) < rank(c)) against directed edges (b->c), and
attribute each found triangle back to its three undirected edges.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from .ops import GraphData


def _oriented(g: GraphData) -> DataFrame:
    """Each undirected edge once, directed by (degree, id) rank."""
    deg = g.edges.groupBy("src").agg(F.count("*").alias("d"))
    e = (
        g.edges.where(F.col("src") < F.col("dst"))
        .join(deg.withColumnRenamed("src", "src_"), F.col("src") == F.col("src_"))
        .drop("src_")
        .withColumnRenamed("d", "d_src")
        .join(deg.withColumnRenamed("src", "dst_"), F.col("dst") == F.col("dst_"))
        .drop("dst_")
        .withColumnRenamed("d", "d_dst")
    )
    lower_first = (F.col("d_src") < F.col("d_dst")) | (
        (F.col("d_src") == F.col("d_dst")) & (F.col("src") < F.col("dst"))
    )
    return e.select(
        F.when(lower_first, F.col("src")).otherwise(F.col("dst")).alias("a"),
        F.when(lower_first, F.col("dst")).otherwise(F.col("src")).alias("b"),
        F.col("d_src"),
        F.col("d_dst"),
    ).select("a", "b")


def triangle_list(g: GraphData) -> DataFrame:
    """All triangles as rows (x, y, z) with x < y < z."""
    e = _oriented(g)
    w1 = e.select(F.col("a"), F.col("b").alias("b1"))
    w2 = e.select(F.col("a"), F.col("b").alias("b2"))
    wedges = w1.join(w2, "a").where(F.col("b1") < F.col("b2"))
    undirected = g.edges.select(
        F.col("src").alias("b1"), F.col("dst").alias("b2")
    ).where(F.col("b1") < F.col("b2"))
    tris = wedges.join(undirected, ["b1", "b2"]).select(
        F.least("a", "b1", "b2").alias("x"),
        F.expr("array_sort(array(a, b1, b2))[1]").alias("y"),
        F.greatest("a", "b1", "b2").alias("z"),
    )
    return tris


def edge_triangle_counts(g: GraphData) -> DataFrame:
    """Triangle count per undirected edge: (u, v, tri) with u < v.

    Edges in no triangle are absent (callers treat missing as 0).
    """
    tris = triangle_list(g)
    pairs = tris.select(
        F.array(
            F.array("x", "y"), F.array("x", "z"), F.array("y", "z")
        ).alias("es")
    ).select(F.explode("es").alias("e"))
    return (
        pairs.select(F.col("e")[0].alias("u"), F.col("e")[1].alias("v"))
        .groupBy("u", "v")
        .agg(F.count("*").alias("tri"))
    )


def vertex_triangle_counts(g: GraphData) -> DataFrame:
    """Triangle count per vertex: (v, tri)."""
    tris = triangle_list(g)
    verts = tris.select(
        F.explode(F.array("x", "y", "z")).alias("v")
    )
    return verts.groupBy("v").agg(F.count("*").alias("tri"))
