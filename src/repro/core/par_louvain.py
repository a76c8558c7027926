"""PARALLEL-CC (Algorithm 1): distributed-dataflow parallel Louvain for LambdaCC.

The edge set is the distributed dataset, kept resident per level as cached
CSR blocks, one per logical partition (hash-partitioned by ``src`` so a
vertex's out-edges are co-located, sorted by ``src`` once; P logical
blocks, run in min(P, cores) tasks; see ``state``); the O(n) vertex state
(assignment, cluster weights ``K_c``, vertex weights ``k``, frontier masks)
is broadcast each BEST-MOVES iteration. One iteration is exactly one
Spark job, a ``mapPartitions`` pass over the level's blocks. Levels below
``state.DRIVER_ROWS`` = 2^21 rows, level 0 included, are held in the
driver, where the same block functions run without a job (the level is
too small to earn back a job's fixed cost):

- **synchronous** (§3.2.1): every frontier vertex evaluates the appendix
  move-delta formula against the same broadcast snapshot; all moves are
  applied at once by the driver. Delta ties break toward the smallest
  cluster id, which is what makes Figure 1's lockstep pathology
  reproducible rather than an endless oscillation. The block pass is the
  compiled ``kernel.local_moves`` loop with updates off: the same
  per-vertex step as the asynchronous mode, about 0.008 µs per row
  (3.6–5.3 ms per pass over orkut's 607k level-0 rows).
- **asynchronous** (§3.2.1): inside each edge partition the vertices are
  processed sequentially in random order against *partition-local* copies
  of the assignment/``K_c`` arrays that are updated immediately (the
  compiled ``kernel.local_moves`` loop SEQ-CC's sweeps also run); across
  partitions the state is stale. This reproduces the paper's
  relaxed-consistency lock-free moves at partition granularity. Because a
  BSP step cannot interleave timing the way free-running threads do, each
  vertex additionally skips an iteration with constant probability
  (p=0.25) — the symmetry-breaking role timing noise plays in the paper.

Frontier options (§3.2.2) — ``all`` / ``vertices`` (neighbors of moved
vertices, Alg. 1 line 10) / ``clusters`` (members and neighbors of the
clusters movers left and joined) — are *fused into the move pass*: since
a vertex's edges are co-located, "has a neighbor in the moved set" is
computable per partition from the broadcast mask, so no separate
frontier job runs (the EDGEMAP role from GBBS). Multi-level refinement
(§3.2.3, Alg. 1 line 9) re-runs BEST-MOVES per level while unwinding;
without it the final objective is scored on the deepest level. SEQ-CC
runs the same recursion (:func:`louvain`) with its own sweep and
compression steps.

Every vertex may also *detach* into a fresh singleton cluster (label
``U + v`` in the pre-densify label space), which matters for large λ.
"""
from __future__ import annotations

import time
from typing import Callable

import numpy as np
import pandas as pd

# The engine takes weighted degrees from level0; degree_array stays importable
# here because the benchmark's tracer wraps par_louvain.degree_array.
from ..graphs.ops import GraphData, degree_array  # noqa: F401
from .config import CCConfig
from .kernel import local_moves
from .state import (
    Block,
    LevelGraph,
    LevelStats,
    RunStats,
    Timer,
    cc_objective,
    cluster_weights,
    coarse_block,
    coarsened,
    compress,
    densify,
    flatten,
    level0,
    regroup,
    route,
)

_NO_MOVES = (
    np.empty(0, dtype="int64"),
    np.empty(0, dtype="int64"),
    np.empty(0, dtype="float64"),
)


def _participates(vs: np.ndarray, seed: int) -> np.ndarray:
    """Async-mode per-iteration participation mask (p=0.75).

    Deterministic in (vertex, seed) and independent of partitioning, so
    the driver can recompute exactly which frontier vertices an executor
    skipped (they must stay eligible next iteration).
    """
    h = (vs.astype("uint64") * np.uint64(2654435761) + np.uint64(seed * 97 + 13)) * np.uint64(
        0x9E3779B97F4A7C15
    )
    return (h >> np.uint64(40)).astype("float64") / float(1 << 24) < 0.75


def _active_verts(
    b: Block,
    all_active: bool,
    aux: np.ndarray | None,
    extra: np.ndarray | None,
) -> np.ndarray:
    """Activity of the block's vertices, resolved locally (mask over ``b.verts``).

    v is active if the frontier is dense, if v is in ``extra`` (skipped
    vertices / affected-cluster members), or if some neighbor of v is in
    ``aux`` (movers / members)."""
    if all_active:
        return np.ones(len(b.verts), dtype=bool)
    act = np.zeros(len(b.verts), dtype=bool)
    if aux is not None and len(b.dst):
        act |= np.logical_or.reduceat(aux[b.dst], b.indptr[:-1])
    if extra is not None:
        act |= extra[b.verts]
    return act


def _sync_block_moves(
    b: Block,
    a: np.ndarray,
    K: np.ndarray,
    k: np.ndarray,
    lam: float,
    U: int,
    tol: float,
    all_active: bool,
    aux: np.ndarray | None,
    extra: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Best move per active vertex against the broadcast snapshot, in row order.

    The compiled local-move loop with updates off: every active vertex is
    scored against the same ``a`` and ``K``, which needs no room for the
    detach labels.
    """
    act = np.flatnonzero(_active_verts(b, all_active, aux, extra))
    return local_moves(act, b.indptr, b.dst, b.w, b.verts, a, K, k, lam, U, tol, apply=False)


def _async_block_moves(
    b: Block,
    a: np.ndarray,
    K: np.ndarray,
    k: np.ndarray,
    lam: float,
    U: int,
    tol: float,
    all_active: bool,
    aux: np.ndarray | None,
    extra: np.ndarray | None,
    seed: int,
    n: int,
    sample: bool = True,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sequential random-order moves with immediate updates to a partition-local state copy."""
    in_frontier = _active_verts(b, all_active, aux, extra)
    participate = (
        _participates(b.verts, seed) if sample else np.ones(len(b.verts), dtype=bool)
    )
    active = np.flatnonzero(in_frontier & participate)
    if len(active) == 0:
        return _NO_MOVES
    # Partition-deterministic order: seed mixes the config seed, the
    # iteration, and this partition's smallest vertex id.
    rng = np.random.default_rng((seed * 1_000_003 + int(b.verts[0])) % (2**63))
    rng.shuffle(active)
    local_K = np.concatenate([K, np.zeros(n + 1)])
    return local_moves(active, b.indptr, b.dst, b.w, b.verts, a.copy(), local_K, k, lam, U, tol)


def _move_pass(
    level: LevelGraph,
    assign: np.ndarray,
    K: np.ndarray,
    U: int,
    lam: float,
    cfg: CCConfig,
    it_seed: int,
    all_active: bool,
    aux: np.ndarray | None,
    extra: np.ndarray | None,
    sample: bool = True,
) -> pd.DataFrame:
    """One BEST-MOVES iteration over the level's blocks, moves collected in the driver.

    On a Spark level: one job, with the state broadcast. On a driver level:
    the same block functions, run in the driver.
    """
    n = level.n
    use_async = cfg.async_moves
    tol = cfg.move_tol

    def fn(b: Block, state: tuple) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        a, Kb, kb, auxb, extrab = state
        if use_async:
            return _async_block_moves(
                b, a, Kb, kb, lam, U, tol, all_active, auxb, extrab, it_seed, n, sample
            )
        return _sync_block_moves(b, a, Kb, kb, lam, U, tol, all_active, auxb, extrab)

    parts = level.map_blocks(fn, (assign, K, level.k, aux, extra))
    v, c, d = (np.concatenate(col) for col in zip(_NO_MOVES, *parts))
    return pd.DataFrame({"v": v, "c": c, "delta": d})


def best_moves(
    level: LevelGraph,
    assign_init: np.ndarray,
    lam: float,
    cfg: CCConfig,
    seed_base: int,
) -> tuple[np.ndarray, int, int]:
    """BEST-MOVES (Algorithm 1 lines 1–11) on one level.

    Returns ``(dense assignment, total moves, iterations run)``.
    """
    assign, U = densify(assign_init)
    K = cluster_weights(assign, level.k, U)
    all_active = True
    aux: np.ndarray | None = None
    extra: np.ndarray | None = None
    total_moves = 0
    iters = 0
    for it in range(cfg.effective_num_iter):
        iters = it + 1
        sampled = cfg.async_moves
        moves = _move_pass(
            level, assign, K, U, lam, cfg, seed_base + it, all_active, aux, extra
        )
        if len(moves) == 0 and cfg.async_moves:
            # The random subsample may have missed every movable vertex;
            # confirm convergence with one full-participation pass before
            # breaking (Alg. 1 line 9 assumes all of V' was considered).
            sampled = False
            moves = _move_pass(
                level,
                assign,
                K,
                U,
                lam,
                cfg,
                seed_base + it,
                all_active,
                aux,
                extra,
                sample=False,
            )
        if len(moves):
            vs = moves["v"].to_numpy()
            cs = moves["c"].to_numpy()
            real = cs != assign[vs]
            vs, cs = vs[real], cs[real]
        else:
            vs = np.empty(0, dtype="int64")
            cs = vs
        if len(vs) == 0:
            break  # Alg. 1 line 9
        old_labels = assign[vs].copy()
        # Frontier vertices the subsample skipped were never considered
        # this iteration — they must stay eligible next iteration.
        skipped = (
            ~_participates(np.arange(level.n), seed_base + it)
            if sampled
            else np.zeros(level.n, dtype=bool)
        )
        assign[vs] = cs
        total_moves += len(vs)
        if cfg.frontier == "all" or len(vs) > 0.5 * level.n:
            # Dense-mode shortcut (EDGEMAP's dense representation): when
            # most vertices moved their neighborhood is ~everything. A
            # superset frontier never changes which moves are available.
            all_active, aux, extra = True, None, None
        elif cfg.frontier == "vertices":
            moved_mask = np.zeros(level.n, dtype=bool)
            moved_mask[vs] = True
            all_active, aux, extra = False, moved_mask, skipped
        else:  # "clusters"
            affected = np.zeros(U + level.n + 1, dtype=bool)
            affected[old_labels] = True
            affected[cs] = True
            members = affected[assign]  # labels still in pre-densify space
            all_active, aux, extra = False, members, members | skipped
        assign, U = densify(assign)
        K = cluster_weights(assign, level.k, U)
    return assign, total_moves, iters


def _compress_driver_python(
    level: LevelGraph, assign_dense: np.ndarray, n_clusters: int, *, partitions: int
) -> LevelGraph:
    """Single-threaded compression (NetworKit stand-in, DESIGN.md §3).

    Collects the level's blocks and aggregates the relabeled edges in an
    interpreted python loop — modeling a compression step that is *not*
    efficiently parallelized, which is exactly the difference the paper
    credits for its speedup over NetworKit.
    """
    blocks = sorted(level.map_blocks(lambda b, _: b, None), key=lambda b: b.part)
    src = np.concatenate([assign_dense[b.src] for b in blocks] or [np.empty(0, "int64")])
    dst = np.concatenate([assign_dense[b.dst] for b in blocks] or [np.empty(0, "int64")])
    w = np.concatenate([b.w for b in blocks] or [np.empty(0)])
    agg: dict[tuple[int, int], float] = {}
    for s, d, x in zip(src.tolist(), dst.tolist(), w.tolist()):
        key = (s, d)
        agg[key] = agg.get(key, 0.0) + x
    s_out = np.fromiter((s for s, _ in agg), "int64", len(agg))
    d_out = np.fromiter((d for _, d in agg), "int64", len(agg))
    w_out = np.fromiter(agg.values(), "float64", len(agg))
    pieces = list(route(s_out, d_out, w_out, partitions))
    if not level.children_in_driver(n_clusters):
        pieces = level.blocks.context.parallelize(pieces)
    child = regroup(pieces, partitions, coarse_block)
    return coarsened(level, assign_dense, n_clusters, child, partitions)


# BEST-MOVES on one level: (level, assignment, λ, cfg, seed) → (dense
# assignment, moves, iterations).
MovesStep = Callable[[LevelGraph, np.ndarray, float, CCConfig, int], tuple[np.ndarray, int, int]]
# Compression of a level by a dense clustering: (level, assignment, n_c) → child.
CompressStep = Callable[[LevelGraph, np.ndarray, int], LevelGraph]


def _recurse(
    level: LevelGraph,
    depth: int,
    lam: float,
    cfg: CCConfig,
    stats: RunStats,
    moves: MovesStep,
    compress_step: CompressStep,
) -> np.ndarray:
    """Algorithm 1 lines 1–11 (Algorithm 2 for SEQ), recursive, with the engine's steps."""
    lstats = LevelStats(n=level.n, m_directed=level.m_directed, driver=level.driver)
    stats.levels.append(lstats)
    seed_base = cfg.seed * 10_007 + depth * 1_000
    with Timer() as t:
        assign, nmoves, iters = moves(level, np.arange(level.n), lam, cfg, seed_base)
    lstats.time_moves, lstats.iters, lstats.moves = t.s, iters, nmoves
    dense, nc = densify(assign)
    if nmoves == 0 or nc >= level.n or depth + 1 >= cfg.max_levels:
        if not cfg.refine:
            # Without refine no level above moves again, so the clustering
            # scored here is the final one, and the objective is
            # level-invariant: scored on this level (before it is released),
            # it costs no level-0 job.
            stats.objective = cc_objective(level, dense, lam)
        return dense
    with Timer() as t:
        child = compress_step(level, dense, nc)
    lstats.time_compress = t.s
    try:
        child_assign = _recurse(child, depth + 1, lam, cfg, stats, moves, compress_step)
    finally:
        child.unpersist()
    assign = flatten(dense, child_assign)
    if cfg.refine:
        with Timer() as t:
            assign, rmoves, riters = moves(level, assign, lam, cfg, seed_base + 500)
        lstats.time_refine, lstats.refine_iters, lstats.refine_moves = t.s, riters, rmoves
    return densify(assign)[0]


def louvain(
    algo: str,
    n: int,
    cfg: CCConfig,
    build: Callable[[np.ndarray | None], LevelGraph],
    moves: MovesStep,
    compress_step: CompressStep,
) -> tuple[np.ndarray, RunStats]:
    """The multilevel run both engines make, around their own steps.

    ``build(k)`` makes level 0 with vertex weights ``k`` (``None``: the
    weighted degrees, modularity's ``k_v``). The reported objective is the
    raw CC value for ``"cc"`` and modularity ``Q = CC/(2W)`` for
    ``"modularity"``. Every level is released before returning, also when
    the call fails. ``stats.total_time`` runs from the level-0 build to the
    final objective.
    """
    modularity = cfg.objective == "modularity"
    t0 = time.perf_counter()
    lvl0 = build(None if modularity else np.ones(n))
    try:
        two_w = float(lvl0.deg.sum())
        if modularity:
            lam = cfg.resolution / two_w if two_w > 0 else 0.0
        else:
            lam = cfg.resolution
        tasks = 0 if lvl0.driver else lvl0.blocks.getNumPartitions()
        stats = RunStats(algo=f"{algo}-{cfg.objective}", lam=lam, two_w=two_w, tasks=tasks)
        assign = _recurse(lvl0, 0, lam, cfg, stats, moves, compress_step)
        if cfg.refine:
            stats.objective = cc_objective(lvl0, assign, lam)
        stats.total_time = time.perf_counter() - t0
    finally:
        lvl0.unpersist()
    stats.reported_objective = (
        stats.objective / two_w if modularity and two_w > 0 else stats.objective
    )
    stats.n_clusters = int(assign.max()) + 1 if len(assign) else 0
    return assign, stats


def parallel_cc(
    g: GraphData, cfg: CCConfig, *, compress_mode: str = "spark"
) -> tuple[np.ndarray, RunStats]:
    """Run PAR-CC / PAR-MOD on a graph; returns (assignment, stats).

    ``cfg.objective`` selects the vertex-weight/λ regime (§2). The
    caller's edges are only read. ``compress_mode="driver_python"`` runs
    the single-threaded compression instead of ``state.compress``.
    """
    compress_fn = _compress_driver_python if compress_mode == "driver_python" else compress
    return louvain(
        "par",
        g.n,
        cfg,
        lambda k: level0(g, k, partitions=cfg.partitions),
        best_moves,
        lambda level, dense, nc: compress_fn(level, dense, nc, partitions=cfg.partitions),
    )
