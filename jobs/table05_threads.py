"""T5 — parallel scalability over "threads" (Figures 7 and 13).

Thread count maps to P logical edge blocks, run in min(P, cores) Spark
tasks (``tasks`` column); P=1 approximates single-threaded execution. Up
to P = cores, a step in P adds both a thread of the async semantics and a
core; beyond it, P varies only the async semantics (more, smaller
stale-state domains), not the number of cores. Coarse levels with fewer
than ``state.DRIVER_ROWS`` rows run in the driver whatever P is
(``driver_levels`` column), so their share of the time does not scale
with P. That holds for level 0 too: a graph below the bound runs wholly
in the driver and reports ``tasks`` 0, since no pass runs a Spark task,
so only graphs above it measure Spark's scaling. Reports self-relative
speedup T(1)/T(P) for PAR-CC and PAR-MOD.
"""
from __future__ import annotations

from repro.core.config import CCConfig
from repro.core.par_louvain import parallel_cc
from repro.eval.harness import table
from repro.graphs.gen import lite_suite
from repro.graphs.ops import to_spark


def run(spark, quick: bool = False):
    graphs = ["orkut-lite"] if quick else ["orkut-lite", "lj-big"]
    parts = [1, 4, 8] if quick else [1, 2, 4, 8, 16]
    rows = []
    for name, g in lite_suite(graphs).items():
        for objective in ("cc", "modularity"):
            res = 0.85 if objective == "cc" else 1.0
            t1 = None
            for p in parts:
                gd = to_spark(spark, g, partitions=p)
                gd.edges.cache().count()
                cfg = CCConfig(
                    resolution=res, objective=objective, num_iter=10, seed=4, partitions=p
                )
                _, stats = parallel_cc(gd, cfg)
                gd.edges.unpersist()
                if t1 is None:
                    t1 = stats.total_time
                rows.append(
                    {
                        "graph": name,
                        "algo": f"par-{objective}",
                        "partitions": p,
                        "tasks": stats.tasks,
                        "driver_levels": sum(l.driver for l in stats.levels),
                        "time_s": stats.total_time,
                        "self_speedup_vs_p1": t1 / stats.total_time,
                        "objective": stats.reported_objective,
                    }
                )
    return table(rows, title="T5: thread (partition) scalability (Fig 7+13)")


if __name__ == "__main__":
    from _common import main

    main(run)
