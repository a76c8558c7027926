"""PARALLEL-CC (Algorithm 1): distributed-dataflow parallel Louvain for LambdaCC.

The edge set is the distributed dataset, kept resident per level as cached
CSR blocks, one per logical partition (hash-partitioned by ``src`` so a
vertex's out-edges are co-located, sorted by ``src`` once; P logical
blocks, run in min(P, cores) tasks; see ``state``); the O(n) vertex state
(assignment, cluster weights ``K_c``, vertex weights ``k``, frontier masks)
is broadcast each BEST-MOVES iteration. One iteration is exactly one
Spark job, a ``mapPartitions`` pass over the level's blocks. Coarse levels
below ``state.DRIVER_ROWS`` rows are held in the driver, where the same
block functions run without a job (the level is too small to earn back a
job's fixed cost); level 0 always runs in Spark:

- **synchronous** (§3.2.1): every frontier vertex evaluates the appendix
  move-delta formula against the same broadcast snapshot; all moves are
  applied at once by the driver. Delta ties break toward the smallest
  cluster id, which is what makes Figure 1's lockstep pathology
  reproducible rather than an endless oscillation.
- **asynchronous** (§3.2.1): inside each edge partition the vertices are
  processed sequentially in random order against *partition-local* copies
  of the assignment/``K_c`` arrays that are updated immediately (the
  ``kernel.local_moves`` loop SEQ-CC's sweeps also run); across
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
(§3.2.3, Alg. 1 line 9) re-runs BEST-MOVES per level while unwinding.

Every vertex may also *detach* into a fresh singleton cluster (label
``U + v`` in the pre-densify label space), which matters for large λ.
"""
from __future__ import annotations

import time

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
    aggregate,
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
    """Best move per active vertex against the broadcast snapshot."""
    act = _active_verts(b, all_active, aux, extra)
    if not act.any():
        return _NO_MOVES
    sel = np.repeat(act, np.diff(b.indptr))
    # Weight from each active vertex to each neighboring cluster; rows come
    # out grouped by vertex, clusters ascending within a vertex.
    v, c, wvc = aggregate(b.src[sel], a[b.dst[sel]], b.w[sel])
    uv, first = np.unique(v, return_index=True)
    gi = np.repeat(np.arange(len(uv)), np.diff(np.append(first, len(v))))
    cuv = a[uv]
    kuv = k[uv]
    own_rows = c == cuv[gi]
    own_uv = np.zeros(len(uv))
    own_uv[gi[own_rows]] = wvc[own_rows]
    base_uv = own_uv - lam * kuv * (K[cuv] - kuv)
    delta = (wvc - lam * kuv[gi] * K[c]) - base_uv[gi]
    cand = ~own_rows
    g_c, c_c, d_c = gi[cand], c[cand], delta[cand]
    # Largest delta per vertex; ties break toward the smallest cluster id
    # (Figure 1's synchronous pathology relies on ties resolving identically).
    order = np.lexsort((c_c, -d_c, g_c))
    g_s = g_c[order]
    top = order[np.append(True, g_s[1:] != g_s[:-1])] if len(order) else order
    best_d = np.full(len(uv), -np.inf)
    best_c = np.full(len(uv), -1, dtype="int64")
    best_d[g_c[top]] = d_c[top]
    best_c[g_c[top]] = c_c[top]
    # Detach-to-singleton wins only when strictly better: its label U + v
    # is larger than every real cluster id.
    iso = -base_uv > best_d
    best_d[iso] = -base_uv[iso]
    best_c[iso] = U + uv[iso]
    keep = best_d > tol
    return uv[keep], best_c[keep], best_d[keep]


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
    local_K = K.tolist()
    local_K.extend([0.0] * (n + 1))
    mv_v, mv_c, mv_d = local_moves(
        active.tolist(), b.indptr.tolist(), b.dst.tolist(), b.w.tolist(), b.verts.tolist(),
        a.tolist(), local_K, k.tolist(), lam, U, tol,
    )
    return (
        np.asarray(mv_v, "int64"),
        np.asarray(mv_c, "int64"),
        np.asarray(mv_d, "float64"),
    )


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
    if not level.children_in_driver:
        pieces = level.blocks.context.parallelize(pieces)
    child = regroup(pieces, partitions, coarse_block)
    return coarsened(level, assign_dense, n_clusters, child, partitions)


def _recurse(
    level: LevelGraph,
    depth: int,
    lam: float,
    cfg: CCConfig,
    stats: RunStats,
    compress_mode: str,
) -> np.ndarray:
    """PARALLEL-CC (Algorithm 1 lines 1–11), recursive."""
    lstats = LevelStats(n=level.n, m_directed=level.m_directed, driver=level.driver)
    stats.levels.append(lstats)
    seed_base = cfg.seed * 10_007 + depth * 1_000
    with Timer() as t:
        assign, nmoves, iters = best_moves(
            level, np.arange(level.n), lam, cfg, seed_base
        )
    lstats.time_moves, lstats.iters, lstats.moves = t.s, iters, nmoves
    dense, nc = densify(assign)
    if nmoves == 0 or nc >= level.n or depth + 1 >= cfg.max_levels:
        return dense
    with Timer() as t:
        if compress_mode == "driver_python":
            child = _compress_driver_python(level, dense, nc, partitions=cfg.partitions)
        else:
            child = compress(level, dense, nc, partitions=cfg.partitions)
    lstats.time_compress = t.s
    try:
        child_assign = _recurse(child, depth + 1, lam, cfg, stats, compress_mode)
    finally:
        child.unpersist()
    assign = flatten(dense, child_assign)
    if cfg.refine:
        with Timer() as t:
            assign, rmoves, riters = best_moves(level, assign, lam, cfg, seed_base + 500)
        lstats.time_refine, lstats.refine_iters, lstats.refine_moves = t.s, riters, rmoves
    return densify(assign)[0]


def parallel_cc(
    g: GraphData, cfg: CCConfig, *, compress_mode: str = "spark"
) -> tuple[np.ndarray, RunStats]:
    """Run PAR-CC / PAR-MOD on a graph; returns (assignment, stats).

    ``cfg.objective`` selects the vertex-weight/λ regime (§2); the
    reported objective is the raw CC value for ``"cc"`` and modularity
    ``Q = CC/(2W)`` for ``"modularity"``. The caller's edges are only
    read, and every level built here is released before returning, also
    when the call fails.
    """
    modularity = cfg.objective == "modularity"
    t0 = time.perf_counter()
    # Modularity's vertex weights are the weighted degrees (k=None).
    lvl0 = level0(g, None if modularity else np.ones(g.n), partitions=cfg.partitions)
    try:
        two_w = float(lvl0.deg.sum())
        if modularity:
            lam = cfg.resolution / two_w if two_w > 0 else 0.0
        else:
            lam = cfg.resolution
        stats = RunStats(
            algo=f"par-{cfg.objective}", lam=lam, two_w=two_w, tasks=lvl0.blocks.getNumPartitions()
        )
        assign = _recurse(lvl0, 0, lam, cfg, stats, compress_mode)
        stats.total_time = time.perf_counter() - t0
        stats.objective = cc_objective(lvl0, assign, lam)
    finally:
        lvl0.unpersist()
    stats.reported_objective = (
        stats.objective / two_w if modularity and two_w > 0 else stats.objective
    )
    stats.n_clusters = int(assign.max()) + 1 if len(assign) else 0
    return assign, stats
