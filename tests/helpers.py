"""Shared test helpers: brute-force objective oracles and tiny graphs."""
import numpy as np
import pandas as pd

from repro.graphs.gen import GenGraph


def brute_cc(g: GenGraph, assign: np.ndarray, lam: float, k: np.ndarray | None = None) -> float:
    """O(n²) ordered-pair LambdaCC objective straight from the §2 definition."""
    n = g.n
    if k is None:
        k = np.ones(n)
    W = np.zeros((n, n))
    u = g.edges["u"].to_numpy()
    v = g.edges["v"].to_numpy()
    w = g.edges["w"].to_numpy()
    W[u, v] = w
    W[v, u] = w
    total = 0.0
    for i in range(n):
        for j in range(n):
            if i == j or assign[i] != assign[j]:
                continue
            if W[i, j] != 0.0:
                total += W[i, j] - lam * k[i] * k[j]
            else:
                total += -lam * k[i] * k[j]
    return total


def brute_modularity(g: GenGraph, assign: np.ndarray, gamma: float) -> float:
    """Reichardt–Bornholdt modularity straight from the §2 definition."""
    n = g.n
    A = np.zeros((n, n))
    u = g.edges["u"].to_numpy()
    v = g.edges["v"].to_numpy()
    w = g.edges["w"].to_numpy()
    A[u, v] = w
    A[v, u] = w
    deg = A.sum(axis=1)
    two_m = deg.sum()
    q = 0.0
    for i in range(n):
        for j in range(n):
            if i == j or assign[i] != assign[j]:
                continue
            q += A[i, j] - gamma * deg[i] * deg[j] / two_m
    return q / two_m


def random_assign(n: int, n_clusters: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, n_clusters, size=n).astype("int64")


def small_weighted_graph(seed: int = 0, n: int = 24, avg_deg: float = 5.0) -> GenGraph:
    """Small random weighted graph for invariant tests."""
    rng = np.random.default_rng(seed)
    m = int(n * avg_deg / 2)
    u = rng.integers(0, n, size=3 * m)
    v = rng.integers(0, n, size=3 * m)
    keep = u != v
    u, v = u[keep][:m], v[keep][:m]
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    pdf = pd.DataFrame({"u": lo, "v": hi, "w": rng.uniform(0.2, 2.0, size=len(lo))})
    pdf = pdf.groupby(["u", "v"], as_index=False)["w"].first()
    return GenGraph(name=f"rand-{seed}", n=n, edges=pdf)


def numpy_reported_objective(
    g: GenGraph, assign: np.ndarray, resolution: float, objective: str = "cc"
) -> float:
    """The engines' reported objective recomputed with numpy from the undirected edges.

    ``"cc"``: the ordered-pair LambdaCC objective with unit vertex weights.
    ``"modularity"``: k = weighted degree, λ = γ/(2W) and Q = CC/(2W)
    (CC itself when 2W = 0).
    """
    u = g.edges["u"].to_numpy()
    v = g.edges["v"].to_numpy()
    w = g.edges["w"].to_numpy()
    if objective == "cc":
        k, lam, norm = np.ones(g.n), resolution, 1.0
    else:
        k = np.bincount(u, weights=w, minlength=g.n) + np.bincount(v, weights=w, minlength=g.n)
        two_w = float(k.sum())
        lam = resolution / two_w if two_w > 0 else 0.0
        norm = two_w if two_w > 0 else 1.0
    K = np.bincount(assign, weights=k, minlength=g.n)
    cc = 2.0 * w[assign[u] == assign[v]].sum() - lam * ((K**2).sum() - (k**2).sum())
    return float(cc / norm)



def numpy_local_moves(
    order, b, a, K, k, lam, U, tol, n
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Immediate best moves of the block rows in ``order``, one numpy call per vertex.

    The reference for ``kernel.local_moves``. Candidate clusters come from
    ``np.unique`` (ascending), so ``argmax`` breaks ties toward the smallest
    id; detaching into ``U + v`` wins only when strictly better. ``a`` and
    ``K`` are copied, not changed.
    """
    verts, indptr, dst_s, w_s = b.verts, b.indptr, b.dst, b.w
    local_a = a.copy()
    local_K = np.zeros(U + n + 1)
    local_K[:U] = K
    mv_v: list[int] = []
    mv_c: list[int] = []
    mv_d: list[float] = []
    for i in order:
        v = int(verts[i])
        dsts = dst_s[indptr[i] : indptr[i + 1]]
        ws = w_s[indptr[i] : indptr[i + 1]]
        cd = local_a[dsts]
        uniq, inv = np.unique(cd, return_inverse=True)
        wvc = np.bincount(inv, weights=ws)
        cv = int(local_a[v])
        kv = float(k[v])
        pos = np.searchsorted(uniq, cv)
        own = float(wvc[pos]) if pos < len(uniq) and uniq[pos] == cv else 0.0
        base = own - lam * kv * (local_K[cv] - kv)
        deltas = (wvc - lam * kv * local_K[uniq]) - base
        deltas[uniq == cv] = -np.inf
        j = int(np.argmax(deltas)) if len(deltas) else -1
        best_d = deltas[j] if j >= 0 else -np.inf
        best_c = int(uniq[j]) if j >= 0 else -1
        d_iso = -base
        if d_iso > best_d:
            best_d, best_c = d_iso, U + v
        if best_d > tol:
            local_K[cv] -= kv
            local_K[best_c] += kv
            local_a[v] = best_c
            mv_v.append(v)
            mv_c.append(best_c)
            mv_d.append(float(best_d))
    return (
        np.asarray(mv_v, "int64"),
        np.asarray(mv_c, "int64"),
        np.asarray(mv_d, "float64"),
    )


def numpy_async_block_moves(
    b, a, K, k, lam, U, tol, all_active, aux, extra, seed, n, sample=True
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``par_louvain._async_block_moves`` with the :func:`numpy_local_moves` loop.

    Same frontier, participation and visiting order as the engine's pass.
    """
    from repro.core.par_louvain import _active_verts, _participates

    in_frontier = _active_verts(b, all_active, aux, extra)
    participate = _participates(b.verts, seed) if sample else np.ones(len(b.verts), dtype=bool)
    active = np.flatnonzero(in_frontier & participate)
    if len(active):
        rng = np.random.default_rng((seed * 1_000_003 + int(b.verts[0])) % (2**63))
        rng.shuffle(active)
    return numpy_local_moves(active, b, a, K, k, lam, U, tol, n)
