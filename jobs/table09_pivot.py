"""T9 — C4 / ClusterWild! comparison (Appendix C.1).

The paper: pivots are up to 139x/429x faster than PAR-CC but drop the CC
objective by 273–433% (often negative) and get precision 0.44–0.65 at
recall 0.10–0.15, vs PAR-CC's recall 0.61–0.98 at precision > 0.5.
Reported here: runtime, CC objective at λ=0.5 (the only resolution
pivots optimize) and at λ=0.85, and precision/recall. Each time is that
of a warm call, made after one untimed call of the same algorithm.
"""
from __future__ import annotations

import numpy as np

from repro.baselines.pivot import kwikcluster, parallel_pivot
from repro.core.config import CCConfig
from repro.core.par_louvain import parallel_cc
from repro.core.seq_louvain import build_csr
from repro.core.state import cc_objective
from repro.eval.harness import table
from repro.eval.quality import avg_precision_recall
from repro.graphs.gen import lite_suite
from repro.graphs.ops import to_spark

try:
    from ._common import warm
except ImportError:  # run as a script: spark-submit jobs/table09_pivot.py
    from _common import warm


def run(spark, quick: bool = False):
    graphs = ["amazon-lite"] if quick else ["amazon-lite", "dblp-lite"]
    rows = []
    for name, g in lite_suite(graphs).items():
        gt = g.gt_communities()
        lvl = build_csr(g.edges, g.n, np.ones(g.n))
        gd = to_spark(spark, g, partitions=8)
        gd.edges.cache().count()

        def record(algo, labels, t):
            prec, rec = avg_precision_recall(gt, labels)
            rows.append(
                {
                    "graph": name,
                    "algo": algo,
                    "time_s": t,
                    "cc_obj@0.5": cc_objective(lvl, labels, 0.5),
                    "cc_obj@0.85": cc_objective(lvl, labels, 0.85),
                    "n_clusters": len(np.unique(labels)),
                    "precision": prec,
                    "recall": rec,
                }
            )

        labels, t = warm(lambda: kwikcluster(g, seed=8))
        record("kwikcluster", labels, t)
        for variant in ("c4", "wild"):
            (labels, _), t = warm(lambda: parallel_pivot(gd, variant=variant, seed=8))
            record(variant, labels, t)
        for lam in (0.5, 0.85):
            cfg = CCConfig(resolution=lam, num_iter=10, seed=8, partitions=8)
            (assign, stats), _ = warm(lambda: parallel_cc(gd, cfg))
            record(f"par-cc@{lam}", assign, stats.total_time)
        gd.edges.unpersist()
    return table(rows, title="T9: pivot baselines vs PAR-CC (Appendix C.1)")


if __name__ == "__main__":
    from _common import main

    main(run)
