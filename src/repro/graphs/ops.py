"""Spark-side graph representation and basic operations.

The distributed representation used throughout the repo is a symmetric
edge DataFrame ``edges(src: long, dst: long, w: double)`` holding *both*
directions of every undirected edge and no self loops — the dataflow
analog of the CSR the paper's shared-memory code uses.

Ingest (:func:`to_spark`) builds both directions in numpy, routes the rows
with :func:`partition_of` (the Murmur3 placement of Spark's
``repartition(P, "src")``) and hands Spark one Arrow record batch per
partition (:func:`edges_frame`). It avoids ``createDataFrame``: below
``spark.sql.execution.arrow.localRelationThreshold`` (48 MB by default)
that becomes a driver-side ``LocalRelation``, whose rows Spark serializes
again into the tasks of every scan, and the ``repartition`` then shuffles
them. On a 4-core container that path took 1.1–1.6 s to count lj-lite's
418k rows; the batches are parallelized one per partition, with no shuffle
and no Python task.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql.pandas.serializers import ArrowStreamSerializer
from pyspark.sql.types import DoubleType, LongType, StructField, StructType

from .gen import GenGraph

EDGE_SCHEMA = StructType(
    [
        StructField("src", LongType(), False),
        StructField("dst", LongType(), False),
        StructField("w", DoubleType(), False),
    ]
)

_LOCAL_RELATION_THRESHOLD = "spark.sql.execution.arrow.localRelationThreshold"


@dataclass
class GraphData:
    """A distributed undirected graph: symmetric edge DataFrame + size."""

    edges: DataFrame  # src, dst, w — both directions, src != dst
    n: int
    name: str = "graph"
    rows: int | None = None  # directed rows of ``edges`` when the builder knows them

    @property
    def m_directed(self) -> int:
        """Number of directed edge rows (2x the undirected edge count).

        Known without a job on a graph from :func:`to_spark`; otherwise one
        ``count()``.
        """
        return self.edges.count() if self.rows is None else self.rows


def _rotl(x: np.ndarray, r: int) -> np.ndarray:
    return (x << np.uint32(r)) | (x >> np.uint32(32 - r))


def _murmur_mix(h: np.ndarray, k: np.ndarray) -> np.ndarray:
    k = _rotl(k * np.uint32(0xCC9E2D51), 15) * np.uint32(0x1B873593)
    return _rotl(h ^ k, 13) * np.uint32(5) + np.uint32(0xE6546B64)


def partition_of(v: np.ndarray, partitions: int) -> np.ndarray:
    """Logical partition that Spark's ``repartition(partitions, "src")`` puts long id ``v`` in.

    This is the block (the engine's "thread") that owns ``v``'s rows; the
    P logical blocks run in ``task_count(P)`` = min(P, cores) Spark tasks.
    Spark places a row at ``pmod(murmur3_x86_32(v, seed=42), partitions)``;
    a long hashes as its low, then its high 32-bit word.
    """
    u = np.asarray(v, dtype="int64").view("uint64")
    h = np.full(u.shape, 42, dtype="uint32")
    h = _murmur_mix(h, (u & np.uint64(0xFFFFFFFF)).astype("uint32"))
    h = _murmur_mix(h, (u >> np.uint64(32)).astype("uint32"))
    h ^= np.uint32(8)
    h ^= h >> np.uint32(16)
    h *= np.uint32(0x85EBCA6B)
    h ^= h >> np.uint32(13)
    h *= np.uint32(0xC2B2AE35)
    h ^= h >> np.uint32(16)
    return h.view("int32").astype("int64") % partitions


def partition_rows(src: np.ndarray, partitions: int) -> list[np.ndarray]:
    """Indices of the rows of each partition ``0..partitions-1`` by ``partition_of(src)``.

    Each partition keeps its rows in input order.
    """
    p = partition_of(src, partitions)
    order = np.argsort(p, kind="stable")
    return np.split(order, np.searchsorted(p[order], np.arange(1, partitions)))


def edges_frame(
    spark: SparkSession, parts: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray]]
) -> DataFrame:
    """An ``EDGE_SCHEMA`` DataFrame whose Spark partition ``i`` holds the rows ``parts[i]``.

    Each ``(src, dst, w)`` triple becomes one Arrow record batch, which the
    JVM reads from a file and parallelizes one batch per partition; empty
    ``parts`` make one empty partition. These are the two internal calls
    that pyspark's ``createDataFrame`` makes, with
    ``spark.sql.execution.arrow.localRelationThreshold`` set to 0 for the
    call, so that the batches never become a driver-side ``LocalRelation``.
    The conf gets its old value back (or is unset again) even if the call
    fails; a concurrent ``createDataFrame`` in the same session would see
    the 0. A batch is one JVM byte array, so one part must stay under
    2 GiB: about 89M rows at 24 bytes a row.
    """
    import pyarrow as pa

    schema = pa.schema(
        [("src", pa.int64(), False), ("dst", pa.int64(), False), ("w", pa.float64(), False)]
    )
    empty = np.empty(0)
    batches = [
        pa.record_batch(
            [
                np.asarray(src, dtype="int64"),
                np.asarray(dst, dtype="int64"),
                np.asarray(w, dtype="float64"),
            ],
            schema=schema,
        )
        for src, dst, w in parts or [(empty, empty, empty)]
    ]
    jvm, sc = spark._jvm, spark.sparkContext
    old = spark.conf.get(_LOCAL_RELATION_THRESHOLD, None)
    spark.conf.set(_LOCAL_RELATION_THRESHOLD, "0")
    try:
        jiter = sc._serialize_to_jvm(
            batches,
            ArrowStreamSerializer(),
            jvm.PythonSQLUtils.readArrowStreamFromFile,
            jvm.ArrowIteratorServer,
        )
        jdf = jvm.PythonSQLUtils.toDataFrame(jiter, EDGE_SCHEMA.json(), spark._jsparkSession)
    finally:
        if old is None:
            spark.conf.unset(_LOCAL_RELATION_THRESHOLD)
        else:
            spark.conf.set(_LOCAL_RELATION_THRESHOLD, old)
    return DataFrame(jdf, spark)


def to_spark(spark: SparkSession, g: GenGraph, *, partitions: int = 8) -> GraphData:
    """Ship a generated graph to Spark, symmetrized, as ``partitions`` partitions by ``src``.

    Spark partition ``p`` holds exactly the rows that ``repartition(partitions,
    "src")`` would put there, in edge-list order (the ``u`` rows, then the
    ``v`` rows), so ``state.level0`` takes partition ``p`` as block ``p``
    without a shuffle. Each partition is one Arrow batch
    (:func:`edges_frame`), never a ``LocalRelation`` that every scan would
    re-serialize into its tasks, so no partition may reach 2 GiB, about 89M
    directed rows. The DataFrame does not carry Catalyst's
    ``hashpartitioning(src)``: a ``groupBy("src")`` on it plans an exchange.
    """
    u = g.edges["u"].to_numpy()
    v = g.edges["v"].to_numpy()
    w = g.edges["w"].to_numpy()
    src, dst, w = np.concatenate([u, v]), np.concatenate([v, u]), np.concatenate([w, w])
    parts = [(src[i], dst[i], w[i]) for i in partition_rows(src, partitions)]
    return GraphData(edges=edges_frame(spark, parts), n=g.n, name=g.name, rows=len(src))


def by_src(g: GraphData) -> GraphData:
    """``g`` with its edges repartitioned by ``src`` into as many partitions as they have.

    For the DataFrame baselines, which group and join on ``src``: on the
    repartitioned edges Catalyst knows the ``hashpartitioning(src)`` that
    :func:`to_spark` leaves unstated, so those steps keep the input's
    partition count instead of each shuffling into
    ``spark.sql.shuffle.partitions``. Apply it once, at the baseline's
    entry: reading the partition count of edges whose plan has its own
    exchanges runs them.
    """
    edges = g.edges.repartition(g.edges.rdd.getNumPartitions(), "src")
    return GraphData(edges=edges, n=g.n, name=g.name)


def degrees(g: GraphData) -> DataFrame:
    """Weighted degree per vertex: ``deg(v) = sum of w over incident edges``.

    Vertices with no edges are absent (callers densify with 0.0).
    """
    return g.edges.groupBy("src").agg(F.sum("w").alias("deg")).withColumnRenamed("src", "v")


def degree_array(g: GraphData) -> np.ndarray:
    """Dense numpy weighted-degree vector of length n (isolated vertices 0)."""
    pdf = degrees(g).toPandas()
    out = np.zeros(g.n, dtype="float64")
    out[pdf["v"].to_numpy()] = pdf["deg"].to_numpy()
    return out


def validate(g: GraphData) -> None:
    """Sanity-check the symmetric-edge invariants; raises AssertionError."""
    bad_self = g.edges.where(F.col("src") == F.col("dst")).count()
    assert bad_self == 0, f"{bad_self} self loops present"
    fwd = g.edges.select("src", "dst", "w")
    rev = g.edges.select(
        F.col("dst").alias("src"), F.col("src").alias("dst"), F.col("w")
    )
    asym = fwd.exceptAll(rev).count()
    assert asym == 0, f"{asym} asymmetric edge rows"
    rng = g.edges.agg(
        F.min("src").alias("lo"), F.max("src").alias("hi")
    ).first()
    assert rng["lo"] is None or (rng["lo"] >= 0 and rng["hi"] < g.n), "vertex id out of range"
