"""Level-graph state shared by the sequential and parallel engines.

A *level* is one graph in the Louvain coarsening hierarchy. Its edges are
split into P = ``cfg.partitions`` *logical* partitions, the engine's
"threads": a vertex's rows all live in partition ``partition_of(v, P)``,
where Spark's ``repartition(P, "src")`` puts them. Each logical partition
is one CSR :class:`Block` (its rows sorted by ``src``, with the row range
of each source vertex). P logical blocks, run in min(P, cores) tasks: the
blocks stay resident as one persisted RDD with S = ``task_count(P)`` Spark
partitions, block ``p`` in Spark partition ``p * S // P`` (``level0`` keeps
Spark's own grouping when it coalesces its input), so every per-block job
is one wave of S tasks. A coarse level with fewer than ``DRIVER_ROWS``
directed rows is instead held in the driver as a list of the same blocks,
and every step on it runs the same per-block functions there, without a
Spark job (:meth:`LevelGraph.map_blocks`).
Per-vertex driver state (O(n) numpy arrays) rides alongside:

- ``k``     — LambdaCC vertex weight of the (super)vertex,
- ``sq``    — sum of squared *original* vertex weights collapsed into it,
- ``selfw`` — total *unordered* original edge weight already internal to it.

With those, the exact level-invariant ordered-pair CC objective of a
clustering ``assign`` of the level's vertices is::

    CC = Σ_{directed edges, same cluster} w          (== 2 × unordered intra)
       + 2 · Σ_v selfw_v
       − λ · ( Σ_c K_c² − Σ_v sq_v )

which equals the paper's objective on the *original* graph for the
flattened clustering — compression preserves it exactly (tested).
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, NamedTuple

import numpy as np
import pandas as pd
from pyspark import RDD, SparkContext, StorageLevel
from pyspark.serializers import NoOpSerializer
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql.types import StructType

from ..graphs.ops import EDGE_SCHEMA, GraphData

_NO_IDS = np.empty(0, dtype="int64")
_NO_WEIGHTS = np.empty(0, dtype="float64")

# A coarse level with fewer directed rows than this is held in the driver.
# A move pass over r rows costs about J + c·r/S as an S-task Spark job and
# c·r in the driver, so the driver is cheaper below r = J·S/((S−1)·c).
# Measured on a 4-core container: J ≈ 0.33–0.35 s (p50 of a no-op 4-task
# Python job), c ≈ 0.5–0.7 µs per row (the list kernel over lj-lite's level-0
# blocks), giving 0.63–0.93M rows; rounded down to a power of two. Level 0,
# the caller's distributed input, always stays in Spark.
DRIVER_ROWS = 1 << 19


class Block(NamedTuple):
    """One logical partition of a level's edges, sorted by ``src`` (CSR over ``verts``)."""

    verts: np.ndarray  # distinct source vertices, ascending
    indptr: np.ndarray  # rows of verts[i] are [indptr[i], indptr[i + 1])
    src: np.ndarray
    dst: np.ndarray
    w: np.ndarray
    # Self loops split off when the block was built by compression: the
    # supervertex and its directed self-loop weight.
    loop_v: np.ndarray = _NO_IDS
    loop_w: np.ndarray = _NO_WEIGHTS
    part: int = 0  # the logical partition p in [0, P)


def make_block(
    src: np.ndarray,
    dst: np.ndarray,
    w: np.ndarray,
    loop_v: np.ndarray = _NO_IDS,
    loop_w: np.ndarray = _NO_WEIGHTS,
    *,
    part: int = 0,
) -> Block:
    """Sort rows by ``src`` (stable, so a vertex keeps its row order) and index them."""
    order = np.argsort(src, kind="stable")
    src, dst, w = src[order], dst[order], w[order]
    verts, starts = np.unique(src, return_index=True)
    indptr = np.append(starts, len(src)).astype("int64")
    return Block(verts, indptr, src, dst, w, loop_v, loop_w, part)


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


def route(
    src: np.ndarray, dst: np.ndarray, w: np.ndarray, partitions: int
) -> Iterator[tuple[int, tuple[np.ndarray, np.ndarray, np.ndarray]]]:
    """Split rows into ``(partition, (src, dst, w))`` pieces by the partition of ``src``."""
    p = partition_of(src, partitions)
    order = np.argsort(p, kind="stable")
    bounds = np.searchsorted(p[order], np.arange(partitions + 1))
    for i in range(partitions):
        idx = order[bounds[i] : bounds[i + 1]]
        if len(idx):
            yield i, (src[idx], dst[idx], w[idx])


def aggregate(
    src: np.ndarray, dst: np.ndarray, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sum ``w`` per distinct ``(src, dst)``; rows come out sorted by src, then dst."""
    order = np.lexsort((dst, src))
    src, dst, w = src[order], dst[order], w[order]
    if len(src) == 0:
        return src, dst, w
    new = np.ones(len(src), dtype=bool)
    new[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
    starts = np.flatnonzero(new)
    return src[starts], dst[starts], np.add.reduceat(w, starts)


def _concat(pieces: list[tuple[np.ndarray, ...]]) -> tuple[np.ndarray, ...]:
    return tuple(np.concatenate(c) for c in zip(*pieces))


def task_count(sc: SparkContext, partitions: int) -> int:
    """Spark partitions (tasks per job) that carry a level's ``partitions`` blocks.

    min(P, cores): one wave of tasks per pass, however many logical blocks.
    """
    return min(partitions, sc.defaultParallelism)


def _build_blocks(
    pieces: Iterable[tuple[int, tuple[np.ndarray, ...]]], build: Callable[..., Block]
) -> list[Block]:
    """One block per logical partition present in ``pieces``, in partition order."""
    groups: dict[int, list] = {}
    for p, piece in pieces:
        groups.setdefault(p, []).append(piece)
    return [build(*_concat(groups[p]), part=p) for p in sorted(groups)]


def regroup(
    pieces: RDD | Iterable, partitions: int, build: Callable[..., Block]
) -> RDD | list[Block]:
    """Gather ``(partition, rows)`` pieces into one block per logical partition.

    An RDD of pieces is shuffled: logical partition ``p`` goes to Spark
    partition ``p * S // P``, and each task builds the blocks of the logical
    partitions it receives rows for, in the order their pieces arrive. Pieces
    held in the driver are built there, in the order given.
    """
    if not isinstance(pieces, RDD):
        return _build_blocks(pieces, build)
    tasks = task_count(pieces.context, partitions)
    return pieces.partitionBy(tasks, lambda p: p * tasks // partitions).mapPartitions(
        lambda it: _build_blocks(it, build), preservesPartitioning=True
    )


def coarse_block(src: np.ndarray, dst: np.ndarray, w: np.ndarray, *, part: int) -> Block:
    """Re-aggregate the pieces of one partition and split off the self loops."""
    src, dst, w = aggregate(src, dst, w)
    loop = src == dst
    keep = ~loop
    return make_block(src[keep], dst[keep], w[keep], src[loop], w[loop], part=part)


def _rows(b: Block) -> Iterator[tuple[int, int, float]]:
    return zip(b.src.tolist(), b.dst.tolist(), b.w.tolist())


@dataclass
class LevelGraph:
    """One level of the coarsening hierarchy (resident edge blocks + driver state)."""

    # One Block per logical partition: a persisted RDD of task_count(P) Spark
    # partitions, or on a driver level a list in logical-partition order.
    blocks: RDD | list[Block]
    n: int
    k: np.ndarray
    sq: np.ndarray
    selfw: np.ndarray
    deg: np.ndarray  # weighted degree of each vertex over this level's edges
    m_directed: int = 0  # number of directed edge rows

    @property
    def driver(self) -> bool:
        """Whether the level's blocks are held in the driver (no Spark job runs on it)."""
        return isinstance(self.blocks, list)

    @property
    def children_in_driver(self) -> bool:
        """Whether any level compressed from this one is built in the driver.

        True on a driver level, and on any level with fewer than
        ``DRIVER_ROWS`` rows: compression never adds rows, so its children
        are driver levels for sure.
        """
        return self.driver or self.m_directed < DRIVER_ROWS

    def map_blocks(self, fn: Callable[[Block, Any], Any], shared: Any) -> list:
        """``fn(block, shared)`` for every block.

        On a Spark level: one job, with ``shared`` broadcast for its duration;
        results come in Spark partition order. On a driver level: a loop in
        the driver, in logical-partition order.
        """
        if self.driver:
            return [fn(b, shared) for b in self.blocks]
        bc = self.blocks.context.broadcast(shared)
        try:
            return self.blocks.map(lambda b: fn(b, bc.value)).collect()
        finally:
            bc.destroy()

    @property
    def edges(self) -> DataFrame:
        """The edge rows as an ``(src, dst, w)`` DataFrame, built on demand (not cached)."""
        if self.driver:
            rows = [r for b in self.blocks for r in _rows(b)]
        else:
            rows = self.blocks.flatMap(_rows)
        return SparkSession.builder.getOrCreate().createDataFrame(rows, EDGE_SCHEMA)

    def unpersist(self) -> None:
        if not self.driver:
            self.blocks.unpersist()


def _summary(b: Block) -> tuple:
    deg = np.add.reduceat(b.w, b.indptr[:-1]) if len(b.w) else _NO_WEIGHTS
    return len(b.src), b.verts, deg, b.loop_v, b.loop_w


def _materialize(
    blocks: RDD | list[Block], n: int, partitions: int, driver_rows: int = 0
) -> tuple[RDD | list[Block], int, np.ndarray, np.ndarray]:
    """Hold a level's blocks where its steps will run, and summarize them.

    Blocks already in the driver stay there. A block RDD is persisted in one
    Spark job that also summarizes it; when it holds fewer than
    ``driver_rows`` rows, that job brings its blocks to the driver instead
    and the RDD is released. To bound what a level that stays in Spark ships
    for nothing, the job returns only blocks below twice a fair share of
    ``driver_rows``; a skewed small level is collected by a second job.

    Returns the blocks, their row count, each vertex's weighted degree and
    each vertex's split-off directed self-loop weight.
    """
    if isinstance(blocks, list):
        parts = [_summary(b) for b in blocks]
    else:
        share = 2 * driver_rows // partitions
        rdd = blocks.persist(StorageLevel.MEMORY_AND_DISK)
        try:
            got = rdd.map(lambda b: (_summary(b), b if len(b.src) < share else None)).collect()
            parts = [s for s, _ in got]
            if sum(s[0] for s in parts) < driver_rows:
                local = [b for _, b in got if b is not None]
                if len(local) < len(got):
                    local = rdd.collect()
                blocks = sorted(local, key=lambda b: b.part)
                rdd.unpersist()
        except BaseException:
            rdd.unpersist()
            raise
    deg = np.zeros(n)
    loops = np.zeros(n)
    m = 0
    for rows, verts, vdeg, loop_v, loop_w in parts:
        m += rows
        deg[verts] = vdeg
        loops[loop_v] = loop_w
    return blocks, m, deg, loops


def coarsened(
    level: LevelGraph,
    assign_dense: np.ndarray,
    n_clusters: int,
    blocks: RDD | list[Block],
    partitions: int,
) -> LevelGraph:
    """Hold ``blocks`` as the level that ``assign_dense`` coarsens ``level`` into.

    The level goes to the driver if it has fewer than ``DRIVER_ROWS`` rows
    (see :func:`_materialize`). A directed self loop counts each unordered
    intra edge twice, so half of its weight joins ``selfw``.
    """

    def fold(x: np.ndarray) -> np.ndarray:
        return np.bincount(assign_dense, weights=x, minlength=n_clusters)

    blocks, m, deg, loops = _materialize(blocks, n_clusters, partitions, DRIVER_ROWS)
    return LevelGraph(
        blocks=blocks,
        n=n_clusters,
        k=fold(level.k),
        sq=fold(level.sq),
        selfw=fold(level.selfw) + loops / 2.0,
        deg=deg,
        m_directed=m,
    )


def densify(assign: np.ndarray) -> tuple[np.ndarray, int]:
    """Relabel arbitrary int cluster labels to dense [0, U)."""
    _, inv = np.unique(assign, return_inverse=True)
    return inv.astype("int64"), int(inv.max()) + 1 if len(inv) else 0


def cluster_weights(assign_dense: np.ndarray, k: np.ndarray, n_clusters: int) -> np.ndarray:
    """Total vertex weight K_c per dense cluster id."""
    return np.bincount(assign_dense, weights=k, minlength=n_clusters)


def _arrow_columns(messages: Iterator[bytes]) -> Iterator[tuple[np.ndarray, ...]]:
    """A partition's Arrow record-batch messages as one ``(src, dst, w)`` triple."""
    import pyarrow as pa

    schema = pa.schema([("src", pa.int64()), ("dst", pa.int64()), ("w", pa.float64())])
    batches = [pa.ipc.read_record_batch(pa.py_buffer(m), schema) for m in messages]
    table = pa.Table.from_batches(batches, schema)
    yield tuple(table.column(c).to_numpy() for c in schema.names)


def level0(
    g: GraphData, k: np.ndarray | None = None, *, partitions: int
) -> LevelGraph:
    """Build the hierarchy's level 0 from an input graph in one Spark job (selfw=0, sq=k²).

    The caller's edges are only read; their storage level is left alone.
    Edges that already have ``partitions`` partitions are taken to be
    hash-partitioned by ``src``, as ``to_spark`` leaves them: input partition
    ``p`` becomes block ``p``, and the blocks are coalesced into
    :func:`task_count` Spark partitions without a shuffle. Otherwise the rows
    are routed with :func:`partition_of`. ``k=None`` takes the weighted
    degrees as vertex weights (modularity's ``k_v``).
    """
    edges = g.edges.select([F.col(f.name).cast(f.dataType) for f in EDGE_SCHEMA.fields])
    # The JVM-internal Dataset.toArrowBatchRdd hands each partition to Python
    # as Arrow batches in a single hop: cheaper than rows, and it runs in the
    # same Python worker pool as every later pass (a mapInArrow hop would
    # start a second pool).
    jrdd = edges._jdf.toArrowBatchRdd().toJavaRDD()
    sc = edges.sparkSession.sparkContext
    cols = RDD(jrdd, sc, NoOpSerializer()).mapPartitions(_arrow_columns)
    if cols.getNumPartitions() == partitions:
        blocks = cols.mapPartitionsWithIndex(
            lambda p, it: [make_block(*c, part=p) for c in it]
        ).coalesce(task_count(sc, partitions))
    else:
        blocks = regroup(cols.flatMap(lambda c: route(*c, partitions)), partitions, make_block)
    blocks, m, deg, _ = _materialize(blocks, g.n, partitions)
    k = (deg if k is None else k).astype("float64")
    return LevelGraph(blocks=blocks, n=g.n, k=k, sq=k**2, selfw=np.zeros(g.n), deg=deg, m_directed=m)


def map_edge_partitions(
    edges: DataFrame,
    fn: Callable[[pd.DataFrame], pd.DataFrame],
    schema: StructType,
) -> DataFrame:
    """mapInPandas with whole-partition semantics.

    Arrow hands mapInPandas a partition as a *chunk iterator*; a vertex
    program needs all edges of a vertex at once (they are co-located when
    edges are hash-partitioned by src), so chunks are concatenated before
    calling ``fn``.
    """

    def runner(it: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        chunks = list(it)
        if not chunks:
            return
        yield fn(pd.concat(chunks, ignore_index=True) if len(chunks) > 1 else chunks[0])

    return edges.mapInPandas(runner, schema=schema)


def intra_weight(level: LevelGraph, assign: np.ndarray) -> float:
    """Σ w over *directed* edge rows whose endpoints share a cluster (one Spark job on a Spark level)."""

    def partial(b: Block, a: np.ndarray) -> tuple[int, float]:
        return b.part, float(b.w[a[b.src] == a[b.dst]].sum())

    # Summed in logical-block order, whichever task carried each block.
    return float(sum(x for _, x in sorted(level.map_blocks(partial, assign))))


def cc_objective(level: LevelGraph, assign: np.ndarray, lam: float) -> float:
    """Ordered-pair LambdaCC objective of ``assign`` on this level.

    Equals the paper's objective on the original graph for the flattened
    clustering (the selfw/sq bookkeeping makes it level-invariant).
    """
    dense, nc = densify(assign)
    K = cluster_weights(dense, level.k, nc)
    intra = intra_weight(level, dense)
    return float(
        intra + 2.0 * level.selfw.sum() - lam * ((K**2).sum() - level.sq.sum())
    )


def compress(
    level: LevelGraph, assign_dense: np.ndarray, n_clusters: int, *, partitions: int
) -> LevelGraph:
    """PARALLEL-COMPRESS: coarsen the level by a dense clustering, in one Spark job.

    Each block is relabeled by the broadcast clustering and pre-aggregated
    locally; its rows are shuffled by target partition (``partitionBy`` on
    whole arrays) and re-aggregated into the child's blocks, whose self
    loops go to ``selfw`` — the dataflow analog of the paper's
    work-efficient parallel semisort compression. The same job brings a
    child with fewer than ``DRIVER_ROWS`` rows to the driver.

    A level with fewer than ``DRIVER_ROWS`` rows has such a child for sure,
    since compression never adds rows: its pre-aggregated pieces are
    collected instead (one job without a shuffle on a Spark level, none on
    a driver level) and the child's blocks are built in the driver, from
    the pieces in logical-partition order.
    """

    def pieces(b: Block, a: np.ndarray) -> tuple[int, list[tuple[int, tuple[np.ndarray, ...]]]]:
        return b.part, list(route(*aggregate(a[b.src], a[b.dst], b.w), partitions))

    if level.children_in_driver:
        parts = sorted(level.map_blocks(pieces, assign_dense), key=lambda x: x[0])
        blocks = regroup([pc for _, ps in parts for pc in ps], partitions, coarse_block)
        return coarsened(level, assign_dense, n_clusters, blocks, partitions)
    bc = level.blocks.context.broadcast(assign_dense)
    try:
        blocks = regroup(
            level.blocks.flatMap(lambda b: pieces(b, bc.value)[1]), partitions, coarse_block
        )
        return coarsened(level, assign_dense, n_clusters, blocks, partitions)
    finally:
        bc.destroy()


def flatten(assign: np.ndarray, assign_coarse: np.ndarray) -> np.ndarray:
    """PARALLEL-FLATTEN: compose a coarse clustering onto the fine level."""
    return assign_coarse[assign]


@dataclass
class LevelStats:
    """Per-level instrumentation (feeds T3 rounds, T6 memory)."""

    n: int
    m_directed: int
    driver: bool = False  # the level's blocks were held in the driver (no Spark job)
    iters: int = 0
    moves: int = 0
    refine_iters: int = 0
    refine_moves: int = 0
    time_moves: float = 0.0
    time_compress: float = 0.0
    time_refine: float = 0.0


@dataclass
class RunStats:
    """Whole-run instrumentation for one engine invocation."""

    algo: str
    total_time: float = 0.0
    levels: list[LevelStats] = field(default_factory=list)
    objective: float = 0.0
    reported_objective: float = 0.0  # CC, or modularity Q = CC/(2W)
    n_clusters: int = 0
    lam: float = 0.0
    two_w: float = 0.0  # total directed weight (modularity normalizer)
    tasks: int = 0  # Spark tasks per pass that carried the P logical blocks (PAR only)

    @property
    def total_rounds(self) -> int:
        return sum(l.iters + l.refine_iters for l in self.levels)

    @property
    def retained_edges_refine(self) -> int:
        """Directed edge rows held simultaneously when refinement keeps all levels."""
        return sum(l.m_directed for l in self.levels)

    @property
    def retained_edges_norefine(self) -> int:
        """Peak simultaneous rows when each level is dropped after compression."""
        ms = [l.m_directed for l in self.levels]
        return max((ms[i] + ms[i + 1] for i in range(len(ms) - 1)), default=ms[0] if ms else 0)


class Timer:
    """Tiny context timer: ``with Timer() as t: ...; t.s``."""

    def __enter__(self) -> "Timer":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.s = time.perf_counter() - self._t0