"""T3 — PAR vs SEQ speedups, objective ratios, round ratios (Figures 4+5).

Runs PAR-CC/PAR-MOD against SEQ-CC/SEQ-MOD (and SEQ^CON on the small
graphs) for each resolution and reports wall-clock speedup, the
objective ratio PAR/SEQ, and the round-count ratio — the three numbers
Figures 4 and 5 plot. Each time is an engine's ``total_time`` (level-0
build to final objective) in a warm call, made after one untimed call of
the same engine and settings.

Substrate note (DESIGN.md §7): Spark's fixed cost of J ≈ 0.12 s per
iteration job (4 tasks on 4 cores), and the driver placement of every
level below 2^21 rows that it motivates, mean PAR only wins once
per-round edge work dominates, so the headline
speedups come from lj-big; on the small graphs PAR loses wall-clock,
which is the honest crossover for this substrate.
"""
from __future__ import annotations

from repro.core.config import CCConfig
from repro.core.par_louvain import parallel_cc
from repro.core.seq_louvain import sequential_cc
from repro.eval.harness import table
from repro.graphs.gen import lite_suite
from repro.graphs.ops import to_spark

try:
    from ._common import warm
except ImportError:  # run as a script: spark-submit jobs/table03_speedups.py
    from _common import warm


def run(spark, quick: bool = False):
    graphs = ["amazon-lite", "lj-big"] if quick else ["amazon-lite", "dblp-lite", "lj-lite", "lj-big"]
    lams = [0.05, 0.85] if quick else [0.01, 0.25, 0.5, 0.85]
    rows = []
    for name, g in lite_suite(graphs).items():
        gd = to_spark(spark, g, partitions=8)
        gd.edges.cache().count()
        small = g.m < 100_000
        objectives = ("cc",) if (quick and not small) else ("cc", "modularity")
        for objective in objectives:
            for lam in lams:
                res = lam if objective == "cc" else (0.05 if lam < 0.5 else 1.0)
                cfg = CCConfig(
                    resolution=res, objective=objective, num_iter=10, seed=2, partitions=8
                )
                (_, s_par), _ = warm(lambda: parallel_cc(gd, cfg))
                (_, s_seq), _ = warm(lambda: sequential_cc(g, cfg))
                row = {
                    "graph": name,
                    "algo": objective,
                    "resolution": res,
                    "par_time_s": s_par.total_time,
                    "seq_time_s": s_seq.total_time,
                    "speedup_par_over_seq": s_seq.total_time / s_par.total_time,
                    "obj_ratio_par_over_seq": (
                        s_par.objective / s_seq.objective if s_seq.objective else float("nan")
                    ),
                    "rounds_ratio_par_over_seq": s_par.total_rounds / max(1, s_seq.total_rounds),
                }
                if small:
                    (_, s_con), _ = warm(lambda: sequential_cc(g, cfg.with_(to_convergence=True)))
                    row["seqcon_time_s"] = s_con.total_time
                    row["speedup_par_over_seqcon"] = s_con.total_time / s_par.total_time
                rows.append(row)
        gd.edges.unpersist()
    return table(rows, title="T3: PAR vs SEQ speedups / objective ratios / round ratios (Fig 4+5)")


if __name__ == "__main__":
    from _common import main

    main(run)
