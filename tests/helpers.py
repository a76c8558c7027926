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


def graph_from_rows(n: int, rows: list[tuple[int, int, float]], name: str = "tiny") -> GenGraph:
    """A graph on ``n`` vertices from ``(u, v, w)`` edge rows (u < v)."""
    edges = pd.DataFrame(
        {
            "u": np.asarray([r[0] for r in rows], dtype="int64"),
            "v": np.asarray([r[1] for r in rows], dtype="int64"),
            "w": np.asarray([r[2] for r in rows], dtype="float64"),
        }
    )
    return GenGraph(name=name, n=n, edges=edges)


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


def pandas_compress(
    src: np.ndarray,
    dst: np.ndarray,
    w: np.ndarray,
    k: np.ndarray,
    sq: np.ndarray,
    selfw: np.ndarray,
    assign_dense: np.ndarray,
    n_clusters: int,
) -> tuple[pd.DataFrame, np.ndarray, np.ndarray, np.ndarray]:
    """SEQUENTIAL-COMPRESS as a pandas groupby: the reference for ``state.compress``.

    Takes a level's directed rows and per-vertex ``k``/``sq``/``selfw``.
    Returns the child's directed rows without self loops (columns ``s``,
    ``d``, ``w``, sorted by ``s`` then ``d``) and its ``k``, ``sq`` and
    ``selfw``. A directed self loop counts an unordered intra edge twice, so
    half of its weight joins ``selfw``.
    """
    df = pd.DataFrame({"s": assign_dense[src], "d": assign_dense[dst], "w": w})
    agg = df.groupby(["s", "d"], sort=True)["w"].sum().reset_index()
    loops = agg["s"] == agg["d"]

    def fold(x: np.ndarray) -> np.ndarray:
        return np.bincount(assign_dense, weights=x, minlength=n_clusters)

    child_selfw = fold(selfw)
    np.add.at(child_selfw, agg["s"][loops].to_numpy(), agg["w"][loops].to_numpy() / 2.0)
    rows = agg[~loops].reset_index(drop=True)
    return rows, fold(k), fold(sq), child_selfw


def numpy_local_moves(
    order, b, a, K, k, lam, U, tol, n, apply=True
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Immediate best moves of the block rows in ``order``, one numpy call per vertex.

    The reference for the compiled ``kernel.local_moves``. Candidate
    clusters come from ``np.unique`` (ascending), so ``argmax`` breaks ties
    toward the smallest id; detaching into ``U + v`` wins only when strictly better. ``a`` and
    ``K`` are copied, not changed; ``K`` may stop at label ``U`` or cover
    labels up to ``U + n``. ``np.bincount`` sums each cluster's weight in
    row order. With ``apply=False`` no move updates the copies, so every
    vertex is scored against the same snapshot.
    """
    verts, indptr, dst_s, w_s = b.verts, b.indptr, b.dst, b.w
    local_a = a.copy()
    local_K = np.zeros(U + n + 1)
    local_K[: len(K)] = K
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
            if apply:
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


def numpy_sync_block_moves(
    b, a, K, k, lam, U, tol, all_active, aux, extra
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``par_louvain._sync_block_moves`` with the :func:`numpy_local_moves` loop, updates off.

    Same frontier and the same row order as the engine's pass.
    """
    from repro.core.par_louvain import _active_verts

    active = np.flatnonzero(_active_verts(b, all_active, aux, extra))
    return numpy_local_moves(active, b, a, K, k, lam, U, tol, len(a), apply=False)


def repartition_reference(spark, g: GenGraph, partitions: int):
    """Both directions of ``g``'s edges through ``createDataFrame`` + ``repartition(P, "src")``.

    The reference for ``ops.to_spark``: Catalyst's own hash placement of the rows.
    """
    from repro.graphs.ops import EDGE_SCHEMA

    u, v, w = (g.edges[c].to_numpy() for c in ("u", "v", "w"))
    sym = pd.DataFrame(
        {"src": np.concatenate([u, v]), "dst": np.concatenate([v, u]), "w": np.concatenate([w, w])}
    )
    return spark.createDataFrame(sym, schema=EDGE_SCHEMA).repartition(partitions, "src")


def lexsort_sync_block_moves(
    b, a, K, k, lam, U, tol, all_active, aux, extra
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Best move per active vertex against a snapshot, selected by two lexsorts.

    A second reference for ``par_louvain._sync_block_moves``, built
    differently from :func:`numpy_sync_block_moves`: ``state.aggregate``
    sums each active vertex's weight per neighbouring cluster (pairwise, by
    ``np.add.reduceat``, so fractional sums may differ in the last bit from
    the row-order sums of the engine), and a
    ``(vertex, −Δ, cluster)`` lexsort picks the largest Δ, ties to the
    smallest cluster id; detaching into ``U + v`` wins only when strictly
    better.
    """
    from repro.core.par_louvain import _NO_MOVES, _active_verts
    from repro.core.state import aggregate

    act = _active_verts(b, all_active, aux, extra)
    if not act.any():
        return _NO_MOVES
    sel = np.repeat(act, np.diff(b.indptr))
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
    order = np.lexsort((c_c, -d_c, g_c))
    g_s = g_c[order]
    top = order[np.append(True, g_s[1:] != g_s[:-1])] if len(order) else order
    best_d = np.full(len(uv), -np.inf)
    best_c = np.full(len(uv), -1, dtype="int64")
    best_d[g_c[top]] = d_c[top]
    best_c[g_c[top]] = c_c[top]
    iso = -base_uv > best_d
    best_d[iso] = -base_uv[iso]
    best_c[iso] = U + uv[iso]
    keep = best_d > tol
    return uv[keep], best_c[keep], best_d[keep]
