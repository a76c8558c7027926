"""T12 — LambdaCC-MATLAB stand-in scaling (Appendix C.1).

The paper: the reference LambdaCC implementation stores a dense adjacency
matrix and cannot scale past hundreds of vertices (0.057 s on the
34-vertex karate graph vs 0.0002 s for their PAR-CC). We reproduce the
scaling wall: dense-matrix Louvain runtime grows ~quadratically with n
while sparse SEQ-CC grows with m.
"""
from __future__ import annotations

import time

import numpy as np

from repro.baselines.lambdacc_dense import lambdacc_dense
from repro.core.config import CCConfig
from repro.core.seq_louvain import build_csr, sequential_cc
from repro.core.state import cc_objective
from repro.eval.harness import table
from repro.graphs.gen import karate, planted_partition


def run(spark=None, quick: bool = False):
    lam = 0.05
    graphs = [karate()]
    sizes = [400, 1000, 2000, 4000]
    for n in sizes:
        graphs.append(
            planted_partition(n, avg_deg=8.0, mixing=0.3, seed=18, name=f"sbm-{n}")
        )
    rows = []
    for g in graphs:
        lvl = build_csr(g.edges, g.n, np.ones(g.n))
        t0 = time.perf_counter()
        labels_d = lambdacc_dense(g, lam, seed=10)
        t_dense = time.perf_counter() - t0
        cfg = CCConfig(resolution=lam, to_convergence=True, seed=10)
        t0 = time.perf_counter()
        labels_s, _ = sequential_cc(g, cfg)
        t_sparse = time.perf_counter() - t0
        rows.append(
            {
                "graph": g.name,
                "n": g.n,
                "m": g.m,
                "dense_time_s": t_dense,
                "sparse_seq_time_s": t_sparse,
                "dense_slowdown_x": t_dense / max(t_sparse, 1e-9),
                "dense_obj": cc_objective(lvl, labels_d, lam),
                "sparse_obj": cc_objective(lvl, labels_s, lam),
            }
        )
    return table(rows, title="T12: dense-matrix LambdaCC stand-in scaling wall (C.1)")


if __name__ == "__main__":
    from _common import main

    main(run)
