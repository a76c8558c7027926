"""T8 — TECTONIC comparison (Figure 10 and the §4.2 speedup claims).

Sweeps TECTONIC's θ and reports its precision/recall operating points
next to PAR-CC's, plus the runtime ratio at matched-or-better quality
(the paper reports 2.48–67.62x PAR-CC speedups over TECTONIC).
TECTONIC's ``time_s`` is its edge weights plus one θ's pruning and
connected components. Each time is that of a warm call, made after one
untimed call of the same step.
"""
from __future__ import annotations

from pyspark.sql import functions as F

from repro.baselines.tectonic import cluster_from_weights, tectonic_weights
from repro.core.config import CCConfig
from repro.core.par_louvain import parallel_cc
from repro.eval.harness import table
from repro.eval.quality import avg_precision_recall
from repro.graphs.gen import lite_suite
from repro.graphs.ops import to_spark

try:
    from ._common import warm
except ImportError:  # run as a script: spark-submit jobs/table08_tectonic.py
    from _common import warm


def run(spark, quick: bool = False):
    graphs = ["amazon-lite"] if quick else ["amazon-lite", "dblp-lite", "lj-lite"]
    thetas = [0.02, 0.06, 0.12, 0.25, 0.5] if quick else [0.01, 0.03, 0.06, 0.1, 0.15, 0.25, 0.4, 0.6]
    lams = [0.05, 0.2, 0.5] if quick else [0.02, 0.05, 0.1, 0.2, 0.35, 0.5, 0.7]
    rows = []
    for name, g in lite_suite(graphs).items():
        gt = g.gt_communities()
        gd = to_spark(spark, g, partitions=8)
        gd.edges.cache().count()
        _, t_weights = warm(lambda: tectonic_weights(gd).agg(F.sum("score")).collect())
        weights = tectonic_weights(gd).cache()
        weights.count()
        for theta in thetas:
            labels, t_cc = warm(lambda: cluster_from_weights(gd, weights, theta))
            prec, rec = avg_precision_recall(gt, labels)
            rows.append(
                {"graph": name, "algo": "tectonic", "param": theta,
                 "time_s": t_weights + t_cc, "precision": prec, "recall": rec}
            )
        weights.unpersist()
        for lam in lams:
            cfg = CCConfig(resolution=lam, num_iter=10, seed=7, partitions=8)
            (assign, stats), _ = warm(lambda: parallel_cc(gd, cfg))
            prec, rec = avg_precision_recall(gt, assign)
            rows.append(
                {"graph": name, "algo": "par-cc", "param": lam,
                 "time_s": stats.total_time, "precision": prec, "recall": rec}
            )
        gd.edges.unpersist()
    return table(rows, title="T8: TECTONIC θ-sweep vs PAR-CC λ-sweep (Fig 10)")


if __name__ == "__main__":
    from _common import main

    main(run)
