"""Connected components via min-label propagation on the edge DataFrame.

Used by the Tectonic baseline (clusters = components of the pruned
graph). Pure Catalyst: each round joins current labels across edges and
takes the min; ``localCheckpoint`` truncates the iterative lineage, and each
round's checkpoint is released once the next one exists.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from .ops import GraphData


def _release(checkpointed: DataFrame) -> None:
    """Unpersist the RDD behind a ``localCheckpoint``ed DataFrame (unusable after)."""
    checkpointed._jdf.queryExecution().logical().rdd().unpersist(False)


def connected_components(g: GraphData, *, max_rounds: int = 60) -> np.ndarray:
    """Label each vertex with the min vertex id of its component.

    Returns a dense numpy int64 array of length n; isolated vertices keep
    their own id as label.
    """
    spark = g.edges.sparkSession
    labels: DataFrame = spark.range(g.n).select(
        F.col("id").alias("v"), F.col("id").alias("lbl")
    )
    labels = labels.localCheckpoint()
    for _ in range(max_rounds):
        ckpt = labels
        # Candidate label for v: min over labels of v's neighbors.
        nbr_min = (
            g.edges.join(labels, g.edges["dst"] == labels["v"])
            .groupBy("src")
            .agg(F.min("lbl").alias("nbr_lbl"))
            .withColumnRenamed("src", "v2")
        )
        new = (
            labels.join(nbr_min, labels["v"] == F.col("v2"), "left")
            .select(
                "v",
                F.least(
                    F.col("lbl"), F.coalesce(F.col("nbr_lbl"), F.col("lbl"))
                ).alias("new_lbl"),
                F.col("lbl"),
            )
        )
        changed = new.where(F.col("new_lbl") != F.col("lbl")).count()
        labels = new.select("v", F.col("new_lbl").alias("lbl"))
        # Pointer jumping: lbl(v) <- lbl(lbl(v)); turns O(diameter)
        # propagation into O(log diameter) rounds (large-star style).
        hop = labels.select(
            F.col("v").alias("hv"), F.col("lbl").alias("hlbl")
        )
        labels = (
            labels.join(hop, labels["lbl"] == hop["hv"], "left")
            .select(
                "v",
                F.least(
                    F.col("lbl"), F.coalesce(F.col("hlbl"), F.col("lbl"))
                ).alias("lbl"),
            )
            .localCheckpoint()
        )
        _release(ckpt)
        if changed == 0:
            break
    pdf = labels.toPandas()
    _release(labels)
    out = np.arange(g.n, dtype="int64")
    out[pdf["v"].to_numpy()] = pdf["lbl"].to_numpy()
    return out
