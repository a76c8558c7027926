"""SCD (Prat-Pérez et al.), simplified: triangle-seeded WCC clustering.

The original SCD greedily optimizes Weighted Community Clustering (a
triangle-based metric) in two phases: (1) an initial partition built by
visiting vertices in decreasing clustering-coefficient order, each
unassigned vertex grabbing its unassigned neighbors; (2) hill-climbing
vertex moves that improve an approximate WCC. This module implements
phase 1 verbatim and a bounded number of phase-2 improvement passes that
move a vertex to the neighboring community with the highest
triangle-weighted attachment — the simplification is documented in
DESIGN.md §3. Like the real SCD it exposes no quality knob (the paper
notes "SCD is not able to vary parameters").

Triangle statistics come from the distributed triangle counter; the
greedy passes are driver-side over a CSR (SCD itself is a shared-memory
code; its cost model is preserved, not its threading).
"""
from __future__ import annotations

import numpy as np

from ..core.state import undirected_block
from ..graphs.gen import GenGraph
from ..graphs.ops import GraphData, by_src, to_spark
from ..graphs.triangles import vertex_triangle_counts


def scd(spark, g: GenGraph, *, improvement_passes: int = 2, partitions: int = 8) -> np.ndarray:
    """Simplified SCD; returns a cluster label per vertex."""
    gd: GraphData = to_spark(spark, g, partitions=partitions)
    tri_pdf = vertex_triangle_counts(by_src(gd)).toPandas()
    tri = np.zeros(g.n)
    if len(tri_pdf):
        tri[tri_pdf["v"].to_numpy()] = tri_pdf["tri"].to_numpy()
    b = undirected_block(g.edges)
    indptr, nbrs = np.searchsorted(b.src, np.arange(g.n + 1)), b.dst
    deg = np.diff(indptr)
    # Local clustering coefficient; isolated/degree-1 vertices get 0.
    denom = np.maximum(deg * (deg - 1) / 2.0, 1.0)
    cc_local = tri / denom

    labels = np.full(g.n, -1, dtype="int64")
    order = np.argsort(-cc_local, kind="stable")
    for v in order:
        if labels[v] != -1:
            continue
        labels[v] = v
        ns = nbrs[indptr[v] : indptr[v + 1]]
        free = ns[labels[ns] == -1]
        labels[free] = v

    # Improvement: move each vertex to the neighbor community with the
    # highest attachment score (edge count weighted by endpoint triangle
    # density, normalized by community size) if it beats the current one.
    for _ in range(improvement_passes):
        moved = 0
        sizes = np.bincount(labels, minlength=g.n).astype("float64")
        for v in range(g.n):
            ns = nbrs[indptr[v] : indptr[v + 1]]
            if len(ns) == 0:
                continue
            wts = 1.0 + cc_local[ns]
            cl = labels[ns]
            uniq, inv = np.unique(cl, return_inverse=True)
            score = np.bincount(inv, weights=wts)
            cur = labels[v]
            # Normalize by community size so huge communities don't absorb all.
            norm = score / np.sqrt(sizes[uniq])
            j = int(np.argmax(norm))
            if uniq[j] != cur:
                pos = np.searchsorted(uniq, cur)
                cur_norm = (
                    norm[pos] if pos < len(uniq) and uniq[pos] == cur else 0.0
                )
                if norm[j] > cur_norm:
                    sizes[cur] -= 1
                    sizes[uniq[j]] += 1
                    labels[v] = uniq[j]
                    moved += 1
        if moved == 0:
            break
    return labels
