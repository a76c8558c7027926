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
