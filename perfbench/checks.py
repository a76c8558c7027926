"""Output checks for one engine call, independent of the engine's own code.

The objective is recomputed from the generated undirected edge list with
numpy, in the ordered-pair form of ``repro.core.state``::

    CC = 2 · Σ_{u<v, same cluster} w  −  λ · (Σ_c K_c² − Σ_v k_v²)

with ``k_v = 1`` for correlation clustering and ``k_v = deg(v)``,
``λ = γ / 2W`` for modularity (then ``Q = CC / 2W``). For modularity the
value is also compared with networkx, whose ``community.modularity`` sums
over all pairs i, j; the engine's i≠j form exceeds it by γ·Σd²/(2W)².
"""
from __future__ import annotations

import numpy as np
import pandas as pd

REL_TOL = 1e-9


def vertex_weights(edges: pd.DataFrame, n: int, objective: str) -> np.ndarray:
    """k_v of the original graph: 1 for CC, weighted degree for modularity."""
    if objective == "cc":
        return np.ones(n)
    deg = np.zeros(n)
    w = edges["w"].to_numpy(dtype="float64")
    np.add.at(deg, edges["u"].to_numpy(), w)
    np.add.at(deg, edges["v"].to_numpy(), w)
    return deg


def cc_value(edges: pd.DataFrame, assign: np.ndarray, k: np.ndarray, lam: float) -> float:
    """Ordered-pair LambdaCC objective of ``assign`` on the original graph."""
    u = edges["u"].to_numpy()
    v = edges["v"].to_numpy()
    w = edges["w"].to_numpy(dtype="float64")
    intra = float(w[assign[u] == assign[v]].sum())
    K = np.bincount(assign, weights=k)
    return 2.0 * intra - lam * float((K**2).sum() - (k**2).sum())


def close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def check_call(
    edges: pd.DataFrame,
    n: int,
    assign: np.ndarray,
    stats,
    objective: str,
    resolution: float,
) -> list[str]:
    """Every mismatch between one call's output and an independent recomputation.

    An empty list means the output is correct.
    """
    assign = np.asarray(assign)
    if len(assign) != n:
        return [f"assignment has length {len(assign)}, expected {n}"]
    if n and not np.issubdtype(assign.dtype, np.integer):
        return [f"assignment dtype {assign.dtype} is not integer"]
    if n and (assign.min() != 0 or len(np.unique(assign)) != assign.max() + 1):
        return ["cluster ids are not dense in [0, #clusters)"]
    errors: list[str] = []
    if stats.n_clusters != (int(assign.max()) + 1 if n else 0):
        errors.append(f"n_clusters {stats.n_clusters} disagrees with the assignment")
    k = vertex_weights(edges, n, objective)
    two_w = 2.0 * float(edges["w"].sum())
    lam = resolution / two_w if objective == "modularity" else resolution
    cc = cc_value(edges, assign, k, lam)
    if not close(cc, stats.objective):
        errors.append(f"objective {stats.objective!r} != recomputed {cc!r}")
    if objective == "modularity":
        q = cc / two_w
        if not close(q, stats.reported_objective):
            errors.append(f"reported Q {stats.reported_objective!r} != recomputed {q!r}")
        q_nx = networkx_q(edges, n, assign, resolution) + resolution * float(
            (k**2).sum()
        ) / two_w**2
        if not close(q_nx, stats.reported_objective):
            errors.append(f"reported Q {stats.reported_objective!r} != networkx {q_nx!r}")
    elif not close(cc, stats.reported_objective):
        errors.append(f"reported CC {stats.reported_objective!r} != recomputed {cc!r}")
    return errors


def networkx_q(edges: pd.DataFrame, n: int, assign: np.ndarray, gamma: float) -> float:
    """Standard (all-pairs) modularity from networkx."""
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_weighted_edges_from(
        zip(
            edges["u"].to_numpy().tolist(),
            edges["v"].to_numpy().tolist(),
            edges["w"].to_numpy(dtype="float64").tolist(),
        )
    )
    order = np.argsort(assign, kind="stable")
    cuts = np.flatnonzero(np.diff(assign[order])) + 1
    comms = [set(c.tolist()) for c in np.split(order, cuts)]
    return float(nx.community.modularity(g, comms, weight="weight", resolution=gamma))
