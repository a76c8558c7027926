"""SEQUENTIAL-CC (Algorithm 2): the paper's sequential Louvain baseline.

A faithful single-threaded implementation over a driver-side CSR: vertices
are visited in a fresh random permutation each sweep and moved
*immediately* (exact, fully consistent cluster weights — the sequential
dependency the paper proves P-complete to parallelize). Sweeps repeat
while the objective increases, capped at ``num_iter`` unless
``to_convergence`` (the paper's SEQ^CON superscript). Compression,
flattening, the neighbors-of-moved-vertices frontier, and multi-level
refinement mirror the parallel engine (§4.2 notes the sequential
baselines include the applicable optimizations).

SEQ-CC / SEQ-MOD run here; PAR-CC / PAR-MOD in ``par_louvain``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd

from ..graphs.gen import GenGraph
from .config import CCConfig
from .kernel import local_moves
from .state import LevelStats, RunStats, Timer, densify


@dataclass
class CSRLevel:
    """Driver-side level graph: CSR adjacency + the per-vertex state."""

    indptr: np.ndarray
    nbrs: np.ndarray
    ws: np.ndarray
    n: int
    k: np.ndarray
    sq: np.ndarray
    selfw: np.ndarray

    @property
    def m_directed(self) -> int:
        return len(self.nbrs)


def build_csr(edges: pd.DataFrame, n: int, k: np.ndarray) -> CSRLevel:
    """CSR from an undirected (u < v) edge list; selfw=0, sq=k²."""
    u = edges["u"].to_numpy()
    v = edges["v"].to_numpy()
    w = edges["w"].to_numpy().astype("float64")
    src = np.concatenate([u, v])
    dst = np.concatenate([v, u])
    ww = np.concatenate([w, w])
    order = np.argsort(src, kind="stable")
    src, dst, ww = src[order], dst[order], ww[order]
    indptr = np.zeros(n + 1, dtype="int64")
    np.add.at(indptr, src + 1, 1)
    indptr = np.cumsum(indptr)
    kk = k.astype("float64")
    return CSRLevel(
        indptr=indptr, nbrs=dst, ws=ww, n=n, k=kk, sq=kk**2, selfw=np.zeros(n)
    )


def csr_objective(level: CSRLevel, assign: np.ndarray, lam: float) -> float:
    """Same level-invariant ordered-pair objective as ``state.cc_objective``."""
    src = np.repeat(np.arange(level.n), np.diff(level.indptr))
    same = assign[src] == assign[level.nbrs]
    intra = float(level.ws[same].sum())
    dense, nc = densify(assign)
    K = np.bincount(dense, weights=level.k, minlength=nc)
    return intra + 2.0 * level.selfw.sum() - lam * ((K**2).sum() - level.sq.sum())


def _sweeps(
    level: CSRLevel,
    assign_init: np.ndarray,
    lam: float,
    cfg: CCConfig,
    rng: np.random.Generator,
) -> tuple[np.ndarray, int, int]:
    """Algorithm 2 lines 3–7: random-order immediate best moves.

    Returns (dense assignment, total moves, sweeps run). A sweep with no
    moves terminates (no move ⇔ no objective increase: every applied
    move strictly increases the objective).
    """
    assign, U = densify(assign_init)
    indptr, nbrs, ws, k = (x.tolist() for x in (level.indptr, level.nbrs, level.ws, level.k))
    verts = range(level.n)
    frontier = np.ones(level.n, dtype=bool)
    total_moves = 0
    sweeps = 0
    for _ in range(cfg.effective_num_iter):
        sweeps += 1
        order = rng.permutation(np.flatnonzero(frontier))
        a = assign.tolist()
        K = np.bincount(assign, weights=level.k, minlength=U).tolist()
        K.extend([0.0] * (level.n + 1))
        moved, _, _ = local_moves(
            order.tolist(), indptr, nbrs, ws, verts, a, K, k, lam, U, cfg.move_tol
        )
        if not moved:
            break
        assign = np.asarray(a, dtype="int64")
        total_moves += len(moved)
        if cfg.frontier == "all":
            frontier = np.ones(level.n, dtype=bool)
        else:
            # neighbors of moved vertices (the paper notes the sequential
            # baselines use the applicable optimizations)
            moved_mask = np.zeros(level.n, dtype=bool)
            moved_mask[moved] = True
            frontier = np.zeros(level.n, dtype=bool)
            frontier[level.nbrs[np.repeat(moved_mask, np.diff(level.indptr))]] = True
        # Re-densify so singleton labels stay compact.
        assign, U = densify(assign)
        if not frontier.any():
            break
    return densify(assign)[0], total_moves, sweeps


def compress_csr(level: CSRLevel, assign_dense: np.ndarray, n_clusters: int) -> CSRLevel:
    """SEQUENTIAL-COMPRESS: pandas groupby aggregation into a new CSR."""
    src = np.repeat(np.arange(level.n), np.diff(level.indptr))
    cs = assign_dense[src]
    cd = assign_dense[level.nbrs]
    df = pd.DataFrame({"s": cs, "d": cd, "w": level.ws})
    agg = df.groupby(["s", "d"], sort=True)["w"].sum().reset_index()
    selfrows = agg["s"].to_numpy() == agg["d"].to_numpy()
    selfw = np.bincount(assign_dense, weights=level.selfw, minlength=n_clusters)
    if selfrows.any():
        np.add.at(
            selfw, agg["s"].to_numpy()[selfrows], agg["w"].to_numpy()[selfrows] / 2.0
        )
    rest = agg[~selfrows]
    s = rest["s"].to_numpy()
    d = rest["d"].to_numpy()
    w = rest["w"].to_numpy()
    indptr = np.zeros(n_clusters + 1, dtype="int64")
    np.add.at(indptr, s + 1, 1)
    indptr = np.cumsum(indptr)
    return CSRLevel(
        indptr=indptr,
        nbrs=d.astype("int64"),
        ws=w.astype("float64"),
        n=n_clusters,
        k=np.bincount(assign_dense, weights=level.k, minlength=n_clusters),
        sq=np.bincount(assign_dense, weights=level.sq, minlength=n_clusters),
        selfw=selfw,
    )


def _recurse_seq(
    level: CSRLevel,
    depth: int,
    lam: float,
    cfg: CCConfig,
    stats: RunStats,
    rng: np.random.Generator,
) -> np.ndarray:
    lstats = LevelStats(n=level.n, m_directed=level.m_directed)
    stats.levels.append(lstats)
    with Timer() as t:
        assign, nmoves, sweeps = _sweeps(level, np.arange(level.n), lam, cfg, rng)
    lstats.time_moves, lstats.iters, lstats.moves = t.s, sweeps, nmoves
    dense, nc = densify(assign)
    if nmoves == 0 or nc >= level.n or depth + 1 >= cfg.max_levels:
        return dense
    with Timer() as t:
        child = compress_csr(level, dense, nc)
    lstats.time_compress = t.s
    child_assign = _recurse_seq(child, depth + 1, lam, cfg, stats, rng)
    assign = dense
    assign = child_assign[assign]  # SEQUENTIAL-FLATTEN
    if cfg.refine:
        with Timer() as t:
            assign, rmoves, rsweeps = _sweeps(level, assign, lam, cfg, rng)
        lstats.time_refine, lstats.refine_iters, lstats.refine_moves = t.s, rsweeps, rmoves
    return densify(assign)[0]


def sequential_cc(g: GenGraph, cfg: CCConfig) -> tuple[np.ndarray, RunStats]:
    """Run SEQ-CC / SEQ-MOD on a generated graph; returns (assignment, stats)."""
    deg = np.zeros(g.n)
    u = g.edges["u"].to_numpy()
    v = g.edges["v"].to_numpy()
    w = g.edges["w"].to_numpy().astype("float64")
    np.add.at(deg, u, w)
    np.add.at(deg, v, w)
    two_w = float(deg.sum())
    if cfg.objective == "modularity":
        k0 = deg
        lam = cfg.resolution / two_w if two_w > 0 else 0.0
    else:
        k0 = np.ones(g.n)
        lam = cfg.resolution
    rng = np.random.default_rng(cfg.seed)
    stats = RunStats(algo=f"seq-{cfg.objective}", lam=lam, two_w=two_w)
    lvl0 = build_csr(g.edges, g.n, k0)
    with Timer() as t:
        assign = _recurse_seq(lvl0, 0, lam, cfg, stats, rng)
    stats.total_time = t.s
    stats.objective = csr_objective(lvl0, assign, lam)
    stats.reported_objective = (
        stats.objective / two_w if cfg.objective == "modularity" and two_w > 0 else stats.objective
    )
    stats.n_clusters = int(assign.max()) + 1 if len(assign) else 0
    return assign, stats
