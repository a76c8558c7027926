"""SEQUENTIAL-CC (Algorithm 2): the paper's sequential Louvain baseline.

A faithful single-threaded implementation over the engine's own level
type: each level is a driver :class:`~.state.LevelGraph` with one block
(P = 1), so no step launches a Spark job. Vertices are visited in a fresh
random permutation each sweep and moved *immediately* (exact, fully
consistent cluster weights — the sequential dependency the paper proves
P-complete to parallelize). Sweeps repeat while the objective increases,
capped at ``num_iter`` unless ``to_convergence`` (the paper's SEQ^CON
superscript). The move kernel, compression, objective, flattening, the
neighbors-of-moved-vertices frontier, and the multilevel recursion with
its refinement (``par_louvain.louvain``, handed SEQ's sweep and
compression steps) are the parallel engine's (§4.2 notes the sequential
baselines include the applicable optimizations); SEQ differs from PAR
only in scheduling.

SEQ-CC / SEQ-MOD run here; PAR-CC / PAR-MOD in ``par_louvain``.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from ..graphs.gen import GenGraph
from .config import CCConfig
from .kernel import local_moves
from .par_louvain import louvain
from .state import (
    LevelGraph,
    RunStats,
    base_level,
    cluster_weights,
    compress,
    densify,
    undirected_block,
)


def build_csr(edges: pd.DataFrame, n: int, k: np.ndarray | None = None) -> LevelGraph:
    """SEQ's level 0 from an undirected (u < v) edge list: one driver block (selfw=0, sq=k²).

    ``k=None`` takes the weighted degrees as vertex weights, as ``state.level0`` does.
    """
    return base_level([undirected_block(edges)], n, k)


def _sweeps(
    level: LevelGraph,
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
    (b,) = level.blocks
    # Row offsets by vertex id, so the kernel visits vertex ids and a vertex
    # without rows (isolated) is skipped.
    verts = np.arange(level.n)
    indptr = np.searchsorted(b.src, np.arange(level.n + 1))
    frontier = np.ones(level.n, dtype=bool)
    total_moves = 0
    sweeps = 0
    for _ in range(cfg.effective_num_iter):
        sweeps += 1
        order = rng.permutation(np.flatnonzero(frontier))
        K = np.zeros(U + level.n + 1)  # room for the detach labels U + v
        K[:U] = cluster_weights(assign, level.k, U)
        moved, _, _ = local_moves(
            order, indptr, b.dst, b.w, verts, assign, K, level.k, lam, U, cfg.move_tol
        )
        if len(moved) == 0:
            break
        total_moves += len(moved)
        if cfg.frontier == "all":
            frontier = np.ones(level.n, dtype=bool)
        else:
            # neighbors of moved vertices (the paper notes the sequential
            # baselines use the applicable optimizations)
            moved_mask = np.zeros(level.n, dtype=bool)
            moved_mask[moved] = True
            frontier = np.zeros(level.n, dtype=bool)
            frontier[b.dst[moved_mask[b.src]]] = True
        # Re-densify so singleton labels stay compact.
        assign, U = densify(assign)
        if not frontier.any():
            break
    return densify(assign)[0], total_moves, sweeps


def compress_csr(level: LevelGraph, assign_dense: np.ndarray, n_clusters: int) -> LevelGraph:
    """SEQUENTIAL-COMPRESS: ``state.compress`` of a one-block driver level, in the driver."""
    return compress(level, assign_dense, n_clusters, partitions=1)


def sequential_cc(g: GenGraph, cfg: CCConfig) -> tuple[np.ndarray, RunStats]:
    """Run SEQ-CC / SEQ-MOD on a generated graph; returns (assignment, stats).

    The recursion, objective and stats are ``par_louvain.louvain``'s, with
    SEQ's steps: one random stream feeds every sweep, in recursion order.
    """
    rng = np.random.default_rng(cfg.seed)
    return louvain(
        "seq",
        g.n,
        cfg,
        lambda k: build_csr(g.edges, g.n, k),
        lambda level, assign, lam, cfg, _seed: _sweeps(level, assign, lam, cfg, rng),
        compress_csr,
    )
