"""The per-vertex local-move kernel shared by SEQ-CC and PAR-CC's async mode.

``local_moves`` visits vertices one at a time and applies each improving
move to its assignment and cluster-weight state at once: Algorithm 2's
sweep when the state is the whole graph's exact ``K`` (``seq_louvain``),
and one asynchronous block pass when it is a block's stale copy
(``par_louvain``). It loops over Python lists rather than calling numpy
per vertex: a vertex has few rows, and numpy's per-call cost dwarfs them.
"""
from __future__ import annotations

from typing import Iterable, Sequence


def local_moves(
    order: Iterable[int],
    indptr: Sequence[int],
    dst: Sequence[int],
    w: Sequence[float],
    verts: Sequence[int],
    a: list[int],
    K: list[float],
    k: Sequence[float],
    lam: float,
    U: int,
    tol: float,
) -> tuple[list[int], list[int], list[float]]:
    """Best immediate move of each vertex of ``order``, applied to ``a`` and ``K`` in place.

    Row ``i`` of the CSR (``indptr``/``dst``/``w``) holds the out-edges of
    vertex ``verts[i]``; ``order`` lists the rows to visit. ``a`` is the
    cluster label of every vertex and ``K`` the total vertex weight of every
    label, long enough for the detach labels ``U + v``. A vertex moves to
    the cluster with the largest delta ``(w_c − (λ·k_v)·K_c) − base``, ties
    going to the smallest cluster id, or detaches into the fresh singleton
    ``U + v`` when that is strictly better. Detach stays out of the running
    maximum because a real label can itself be ≥ U (a singleton made earlier
    in the pass). Only moves whose delta exceeds ``tol`` are made.

    Returns the moved vertices, their new labels and their deltas, in
    visiting order.
    """
    mv_v: list[int] = []
    mv_c: list[int] = []
    mv_d: list[float] = []
    for i in order:
        lo, hi = indptr[i], indptr[i + 1]
        if lo == hi:
            continue
        v = verts[i]
        wc: dict[int, float] = {}
        for d, x in zip(dst[lo:hi], w[lo:hi]):
            c = a[d]
            wc[c] = wc.get(c, 0.0) + x
        cv = a[v]
        kv = k[v]
        lk = lam * kv
        base = wc.get(cv, 0.0) - lk * (K[cv] - kv)
        best_c, best_d = -1, float("-inf")
        for c, x in wc.items():
            if c == cv:
                continue
            delta = (x - lk * K[c]) - base
            if delta > best_d or (delta == best_d and c < best_c):
                best_c, best_d = c, delta
        if -base > best_d:
            best_c, best_d = U + v, -base
        if best_d > tol:
            K[cv] -= kv
            K[best_c] += kv
            a[v] = best_c
            mv_v.append(v)
            mv_c.append(best_c)
            mv_d.append(best_d)
    return mv_v, mv_c, mv_d
