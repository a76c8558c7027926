"""Per-layer metrics from the spans of traced engine calls.

``WRAPPED`` lists the engine functions the traced run wraps, by the module
attribute the engine calls them through. ``MOVES`` says which end-to-end
metric each layer metric should move, and on which workload; the summary
written after a traced run repeats it next to the measured values.
"""
from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Callable

from spans import Span, self_times, tail

# (module, attribute, span name, extractor name)
WRAPPED = [
    ("par_louvain", "best_moves", "par_louvain.best_moves", None),
    ("par_louvain", "_move_pass", "par_louvain._move_pass", "move_pass"),
    ("par_louvain", "compress", "state.compress", "compress"),
    ("par_louvain", "level0", "state.level0", None),
    ("par_louvain", "cc_objective", "state.cc_objective", None),
    ("par_louvain", "degree_array", "ops.degree_array", None),
    ("seq_louvain", "_sweeps", "seq_louvain._sweeps", None),
    ("seq_louvain", "compress_csr", "seq_louvain.compress_csr", None),
    ("seq_louvain", "build_csr", "seq_louvain.build_csr", None),
]

_PAR = "`lj-cc-async`, `orkut-mod-sync`"
_SEQ = "the traced `sequential_cc` call of each Spark workload"
MOVES = {
    "ops.to_spark_s": ("setup_s", _PAR),
    "ops.degree_array_s": ("wall_s", _PAR),
    "state.level0_s": ("wall_s", _PAR),
    "state.level0_jobs": ("wall_s", _PAR),
    "state.compress_s": ("wall_s, peak_rss_mb", "mainly `orkut-mod-sync`"),
    "state.compress_calls": ("wall_s, peak_rss_mb", "mainly `orkut-mod-sync`"),
    "state.compress_rows_in": ("wall_s, peak_rss_mb", "mainly `orkut-mod-sync`"),
    "state.compress_rows_out": ("wall_s, peak_rss_mb", "mainly `orkut-mod-sync`"),
    "state.compress_jobs": ("wall_s, peak_rss_mb", "mainly `orkut-mod-sync`"),
    "state.compress_tasks": ("wall_s, peak_rss_mb", "mainly `orkut-mod-sync`"),
    "state.cc_objective_s": ("wall_s", _PAR),
    "par_louvain.move_pass_calls": ("wall_s", _PAR),
    "par_louvain.move_pass_s": ("wall_s", _PAR),
    "par_louvain.move_pass_p50_s": ("wall_s", _PAR),
    "par_louvain.move_pass_tail_s": ("wall_s", _PAR),
    "par_louvain.move_pass_jobs": ("wall_s", _PAR),
    "par_louvain.move_pass_tasks": ("wall_s", _PAR),
    "par_louvain.move_pass_tasks_failed": ("wall_s", _PAR),
    "par_louvain.move_pass_dense_calls": ("wall_s", _PAR),
    "par_louvain.move_pass_confirm_calls": ("wall_s", _PAR),
    "par_louvain.move_pass_moves": ("wall_s", _PAR),
    "par_louvain.move_pass_useful_ratio": ("wall_s", _PAR),
    "par_louvain.move_pass_share": ("wall_s", _PAR),
    "par_louvain.apply_s": ("wall_s", "`lj-cc-async`"),
    "par_louvain.refine_s": ("wall_s", "`lj-cc-async` only"),
    "par_louvain.rounds": ("wall_s, objective", _PAR),
    "par_louvain.levels": ("wall_s, objective", _PAR),
    "par_louvain.l0_moves_per_vertex": ("wall_s, objective", _PAR),
    "seq_louvain.sequential_cc_s": ("none (the PAR-over-SEQ denominator)", _SEQ),
    "seq_louvain.build_csr_s": ("seq_louvain.sequential_cc_s", _SEQ),
    "seq_louvain.sweeps_s": ("seq_louvain.sequential_cc_s", _SEQ),
    "seq_louvain.sweeps_calls": ("seq_louvain.sequential_cc_s", _SEQ),
    "seq_louvain.rounds": ("seq_louvain.sequential_cc_s", _SEQ),
    "seq_louvain.compress_csr_s": ("seq_louvain.sequential_cc_s", _SEQ),
    "probe.noop_job_s": ("floor of par_louvain.move_pass_p50_s", "`lj-cc-async`"),
    "probe.noop_map_in_pandas_s": ("floor of par_louvain.move_pass_p50_s", "`lj-cc-async`"),
    "trace.spark_jobs": ("none (`sequential_cc` must use no Spark)", "all"),
    "trace.overhead_s": ("none (traced minus untraced wall_s)", "all"),
}


def _extract_move_pass(a: dict, moves) -> dict:
    """Pass shape and outcome; ``assign`` is read before ``best_moves`` applies the moves."""
    useful = 0
    if len(moves):
        assign = a["assign"]
        useful = int((moves["c"].to_numpy() != assign[moves["v"].to_numpy()]).sum())
    return {
        "dense": float(bool(a["all_active"])),
        "confirm": float(not a["sample"]),
        "moves": float(len(moves)),
        "useful": float(useful),
    }


def _extract_compress(a: dict, child) -> dict:
    return {"rows_in": float(a["level"].m_directed), "rows_out": float(child.m_directed)}


EXTRACTORS = {"move_pass": _extract_move_pass, "compress": _extract_compress}


def call_metrics(spans: list[Span], stats, n: int, wall: float) -> dict[str, float]:
    """Layer metrics of one traced call (all spans of one run id)."""
    self_t = self_times(spans)
    by: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by[s.name].append(s)

    def total(name: str, f: Callable[[Span], float] = lambda s: s.duration) -> float:
        return float(sum(f(s) for s in by[name]))

    def cnt(name: str) -> float:
        return total(name, lambda s: 1)

    def info(name: str, key: str) -> float:
        return total(name, lambda s: s.info.get(key, 0.0))

    def jobs(name: str) -> float:
        return total(name, lambda s: s.jobs)

    def tasks(name: str) -> float:
        return total(name, lambda s: s.tasks)

    mp = "par_louvain._move_pass"
    par = stats.algo.startswith("par")
    levels = stats.levels
    out = {
        "ops.to_spark_s": total("ops.to_spark"),
        "ops.degree_array_s": total("ops.degree_array"),
        "state.level0_s": total("state.level0"),
        "state.level0_jobs": jobs("state.level0"),
        "state.compress_s": total("state.compress"),
        "state.compress_calls": cnt("state.compress"),
        "state.compress_rows_in": info("state.compress", "rows_in"),
        "state.compress_rows_out": info("state.compress", "rows_out"),
        "state.compress_jobs": jobs("state.compress"),
        "state.compress_tasks": tasks("state.compress"),
        "state.cc_objective_s": total("state.cc_objective"),
        "par_louvain.move_pass_calls": cnt(mp),
        "par_louvain.move_pass_s": total(mp),
        "par_louvain.move_pass_jobs": jobs(mp),
        "par_louvain.move_pass_tasks": tasks(mp),
        "par_louvain.move_pass_tasks_failed": total(mp, lambda s: s.tasks_failed),
        "par_louvain.move_pass_dense_calls": info(mp, "dense"),
        "par_louvain.move_pass_confirm_calls": info(mp, "confirm"),
        "par_louvain.move_pass_moves": info(mp, "moves"),
        "par_louvain.move_pass_useful_ratio": (
            sum(1 for s in by[mp] if s.info.get("useful", 0) > 0) / len(by[mp]) if by[mp] else 0.0
        ),
        "par_louvain.move_pass_share": total(mp) / wall if wall > 0 else 0.0,
        "par_louvain.apply_s": total("par_louvain.best_moves", lambda s: self_t[s.id]),
        "par_louvain.refine_s": float(sum(l.time_refine for l in levels)) if par else 0.0,
        "par_louvain.rounds": float(stats.total_rounds) if par else 0.0,
        "par_louvain.levels": float(len(levels)) if par else 0.0,
        "par_louvain.l0_moves_per_vertex": levels[0].moves / n if par and levels else 0.0,
        "seq_louvain.sequential_cc_s": total("seq_louvain.sequential_cc"),
        "seq_louvain.build_csr_s": total("seq_louvain.build_csr"),
        "seq_louvain.sweeps_s": total("seq_louvain._sweeps"),
        "seq_louvain.sweeps_calls": cnt("seq_louvain._sweeps"),
        "seq_louvain.rounds": 0.0 if par else float(stats.total_rounds),
        "seq_louvain.compress_csr_s": total("seq_louvain.compress_csr"),
        "trace.spark_jobs": float(sum(s.jobs for s in spans)),
    }
    return out


def run_metrics(
    per_call: list[dict[str, float]], pass_times: list[float]
) -> dict[str, float]:
    """Median over traced calls; pass percentiles pooled over all their passes."""
    out = {k: float(statistics.median(c[k] for c in per_call)) for k in per_call[0]}
    out["par_louvain.move_pass_p50_s"] = float(statistics.median(pass_times)) if pass_times else 0.0
    out["par_louvain.move_pass_tail_s"] = tail(pass_times)[1]
    return out


def summary(spans: list[Span]) -> list[dict]:
    """Count, total, self time and Spark work per span name, largest self time first."""
    self_t = self_times(spans)
    rows: dict[str, dict] = {}
    for s in spans:
        r = rows.setdefault(
            s.name,
            {"name": s.name, "count": 0, "total_s": 0.0, "self_s": 0.0,
             "jobs": 0, "tasks": 0, "tasks_failed": 0},
        )
        r["count"] += 1
        r["total_s"] += s.duration
        r["self_s"] += self_t[s.id]
        r["jobs"] += s.jobs
        r["tasks"] += s.tasks
        r["tasks_failed"] += s.tasks_failed
    return sorted(rows.values(), key=lambda r: -r["self_s"])


def format_summary(rows: list[dict], metrics: dict[str, float]) -> str:
    lines = [
        f"{'span':32s} {'count':>6s} {'self_s':>9s} {'total_s':>9s} {'jobs':>6s} {'tasks':>7s} {'failed':>6s}"
    ]
    for r in rows:
        lines.append(
            f"{r['name']:32s} {r['count']:6d} {r['self_s']:9.3f} {r['total_s']:9.3f} "
            f"{r['jobs']:6d} {r['tasks']:7d} {r['tasks_failed']:6d}"
        )
    lines.append("")
    lines.append(f"{'layer metric':40s} {'value':>12s}  moves (on)")
    for name, value in metrics.items():
        target, where = MOVES.get(name, ("", ""))
        lines.append(f"{name:40s} {value:12.4f}  {target} ({where})")
    return "\n".join(lines)
