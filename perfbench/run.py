"""Engine benchmark: one workload, a closed loop of engine calls, checked outputs.

Usage, from the repository root::

    python3 perfbench/run.py --workload lj-cc-async --seed 13 --seconds 30 --trace 0

Each iteration of the loop regenerates the workload's graph from ``--seed``
(``graphs.gen.planted_partition``), ships it to Spark and materialises its
cache (set-up), makes one engine call (timed), then checks the output
outside the timed region. An unmeasured warm-up call on a small graph comes
first, and the first call of an untraced run sets up ``SETUP_REPEATS``
times. Iterations repeat while the next one is expected to end within
``--seconds`` of the process start. Workload parameters live in
``perfbench/workloads.json``.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` makes one
untraced call and then traced ones, runs the fixed-cost probes, prints the
per-layer metrics and writes spans plus a per-layer summary to
``perfbench/out/``. A traced run of a Spark workload ends with one traced
``sequential_cc`` call on the same graph and settings, which gives the
``seq_louvain.*`` layer metrics. ``--reference`` swaps in the full-size
lite settings (e.g. lj-lite with ``num_iter=10``); such runs take minutes
per call.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
MASTER = "local[*]"
PROBE_REPEATS = 5
# Set-ups before the first call of an untraced run; setup_s is the median
# of these and of the one set-up before each further call.
SETUP_REPEATS = 3
WARM_UP_N = 1000


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=None, help="graph seed (default: the workload's)")
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--reference", action="store_true", help="full-size lite settings")
    return p.parse_args(argv)


def load_workload(name: str, reference: bool) -> dict:
    specs = json.loads((HERE / "workloads.json").read_text())
    if name not in specs:
        raise SystemExit(f"unknown workload {name!r}; known: {', '.join(specs)}")
    spec = specs[name]
    if reference:
        spec["graph"].update(spec["reference"].get("graph", {}))
        spec["config"].update(spec["reference"].get("config", {}))
    return spec


def start_spark(spec: dict):
    """Local session with the settings every result records."""
    local_dir = OUT / "spark-local"
    local_dir.mkdir(parents=True, exist_ok=True)
    mem = os.environ.setdefault("SPARK_DRIVER_MEM", "2g")
    # Python workers import the engine, so they need src on their path.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["TMPDIR"] = str(local_dir)
    os.environ["PYSPARK_SUBMIT_ARGS"] = f"--master {MASTER} --driver-memory {mem} pyspark-shell"
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.master(MASTER)
        .appName("perfbench")
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.local.dir", str(local_dir))
        # Let a full GC return free heap to the OS, so that peak_rss_mb of a
        # call does not depend on how far earlier calls grew the heap. No perf
        # data file: the JVM would write it to the system temp directory.
        .config(
            "spark.driver.extraJavaOptions",
            f"-Djava.io.tmpdir={local_dir} -XX:MinHeapFreeRatio=10 -XX:MaxHeapFreeRatio=20"
            " -XX:-UsePerfData",
        )
        .config("spark.sql.shuffle.partitions", str(spec["config"]["partitions"]))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session and the JVM, and wait for every process they started."""
    from pyspark import SparkContext

    from rss import descendants

    started = descendants()[1:]
    gateway = SparkContext._gateway
    # A signal that interrupted a py4j call leaves the connection unusable;
    # the JVM then still ends when its stdin closes.
    with contextlib.suppress(Exception):
        spark.stop()
    if gateway is not None:
        with contextlib.suppress(Exception):
            gateway.shutdown()
        proc = getattr(gateway, "proc", None)
        if proc is not None:
            proc.stdin.close()
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
    deadline = time.monotonic() + 30
    for pid in started:
        while _alive(pid):
            if time.monotonic() > deadline:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
            time.sleep(0.05)


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            stat = f.read()
    except OSError:
        return False
    return stat[stat.rindex(")") + 2] != "Z"


class Bench:
    """One workload's graph, engine and checks, shared by every call of a run."""

    def __init__(self, spec: dict, seed: int, spark, tracer):
        from repro.core import par_louvain, seq_louvain
        from repro.core.config import CCConfig

        self.spec, self.seed = spec, seed
        self.graph_args = dict(spec["graph"], seed=seed)
        self.cfg = CCConfig(**spec["config"])
        self.parallel = spec["engine"] == "parallel_cc"
        self.engine = par_louvain.parallel_cc if self.parallel else seq_louvain.sequential_cc
        self.root_span = ("par_louvain." if self.parallel else "seq_louvain.") + spec["engine"]
        self.spark = spark
        self.tracer = tracer
        self.modules = {"par_louvain": par_louvain, "seq_louvain": seq_louvain}
        self.level0_edges = None

    def warm_up(self) -> float:
        """One unmeasured engine call on a small graph of the same shape.

        The first engine call of a session pays for JVM code generation and
        JIT compilation and for Python workers importing the engine: about
        7 s of set-up and 5-10 s of wall time on a 4-core machine, tapering
        off over the next call. A small call with one iteration per level
        runs every code path of a measured call and takes most of that
        cost; a no-op Spark job alone does not.
        """
        t0 = time.perf_counter()
        _, inp = self.setup(False, n=WARM_UP_N)
        self.engine(inp, self.cfg.with_(num_iter=1))
        if self.parallel:
            inp.edges.unpersist()
        return time.perf_counter() - t0

    def setup(self, traced: bool, n: int | None = None):
        """Generate the graph and, for Spark engines, cache it. Returns (graph, input)."""
        from repro.graphs.gen import planted_partition
        from repro.graphs.ops import to_spark

        args = self.graph_args if n is None else dict(self.graph_args, n=n)
        g = planted_partition(name="perfbench", **args)
        if not self.parallel:
            return g, g
        with self.tracer.span("ops.to_spark") if traced else contextlib.nullcontext():
            gd = to_spark(self.spark, g, partitions=self.cfg.partitions)
            # parallel_cc unpersists the level-0 edges it was handed, which are
            # this DataFrame when partition counts match, so it is rebuilt and
            # re-cached before every call.
            gd.edges.persist()
            gd.edges.count()
        return g, gd

    def call(self, traced: bool, setups: int = 1) -> dict:
        """``setups`` timed set-ups, one timed engine call on the last, output check."""
        from checks import check_call
        from layers import EXTRACTORS, WRAPPED, call_metrics
        from rss import PeakRss

        from repro.eval.quality import ari

        t = self.tracer
        t.run += 1
        rec: dict = {"traced": traced, "ok": False, "setup_s": []}
        for i in range(setups):
            if i and self.parallel:
                inp.edges.unpersist()
            t0 = time.perf_counter()
            g, inp = self.setup(traced)
            rec["setup_s"].append(time.perf_counter() - t0)
        if traced:
            for mod, attr, name, ex in WRAPPED:
                t.wrap(self.modules[mod], attr, name, EXTRACTORS.get(ex))
        try:
            with PeakRss() as mem:
                t1 = time.perf_counter()
                with t.span(self.root_span) if traced else contextlib.nullcontext():
                    assign, stats = self.engine(inp, self.cfg)
                rec["wall_s"] = time.perf_counter() - t1
        except Exception:
            traceback.print_exc()
            rec["errors"] = ["engine call raised"]
            return rec
        finally:
            t.restore()
            if self.parallel:
                inp.edges.unpersist()
                self.level0_edges = inp.edges
        rec["peak_rss_mb"] = mem.peak_mb
        rec["objective"] = float(stats.reported_objective)
        rec["ari"] = float(ari(g.gt, assign))
        rec["errors"] = check_call(
            g.edges, g.n, assign, stats, self.cfg.objective, self.cfg.resolution
        )
        rec["ok"] = not rec["errors"]
        if traced:
            t.harvest([s for s in t.spans if s.run == t.run])
            rec["layers"] = call_metrics(
                [s for s in t.spans if s.run == t.run], stats, g.n, rec["wall_s"]
            )
        return rec

    def seq_twin(self) -> "Bench":
        """The same graph and settings run through ``sequential_cc``."""
        return Bench(dict(self.spec, engine="sequential_cc"), self.seed, self.spark, self.tracer)

    def probes(self) -> dict[str, float]:
        """Fixed Spark cost outside any engine call: median of a few repeats.

        The no-op mapInPandas runs over the last call's level-0 edges.
        """
        if not self.parallel:
            return {"probe.noop_job_s": 0.0, "probe.noop_map_in_pandas_s": 0.0}
        from repro.core.state import map_edge_partitions

        sc = self.spark.sparkContext
        edges = self.level0_edges
        edges.persist()
        edges.count()
        part = self.cfg.partitions
        job, mip = [], []
        for _ in range(PROBE_REPEATS):
            t0 = time.perf_counter()
            sc.parallelize(range(part), part).map(lambda x: x).count()
            job.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            map_edge_partitions(edges, _empty, _empty_schema()).toPandas()
            mip.append(time.perf_counter() - t0)
        edges.unpersist()
        return {
            "probe.noop_job_s": statistics.median(job),
            "probe.noop_map_in_pandas_s": statistics.median(mip),
        }


def _empty(pdf):
    import pandas as pd

    return pd.DataFrame({"v": pd.Series([], dtype="int64")})


def _empty_schema():
    from pyspark.sql.types import LongType, StructField, StructType

    return StructType([StructField("v", LongType(), False)])


def env_info(spark, spec: dict) -> dict:
    """What every result records about where it ran (Spark fields None without Spark)."""
    sc = spark.sparkContext if spark else None
    return {
        "master": sc.master if sc else None,
        "defaultParallelism": sc.defaultParallelism if sc else None,
        "partitions": spec["config"]["partitions"],
        "nproc": os.cpu_count(),
        "SPARK_DRIVER_MEM": os.environ.get("SPARK_DRIVER_MEM") if sc else None,
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "core" / "par_louvain.py").is_file():
        print(f"perfbench: engine sources not found under {SRC}", file=sys.stderr)
        return 2
    spec = load_workload(args.workload, args.reference)
    seed = spec["graph"]["seed"] if args.seed is None else args.seed
    sys.path.insert(0, str(SRC))
    from spans import Tracer

    # SIGTERM exits through the finally below, which stops Spark and its processes.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    t_start = time.perf_counter()
    spark = start_spark(spec) if spec["engine"] == "parallel_cc" else None
    session_s = time.perf_counter() - t_start
    try:
        info = env_info(spark, spec)
        bench = Bench(spec, seed, spark, Tracer(spark.sparkContext if spark else None))
        warm_up_s = bench.warm_up()
        result, detail = measure(bench, args, t_start)
    finally:
        if spark is not None:
            stop_spark(spark)
    detail.update(info, workload=args.workload, seed=seed,
                  reference=args.reference, session_s=session_s, warm_up_s=warm_up_s)
    OUT.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-s{seed}-t{args.trace}{'-ref' if args.reference else ''}"
    (OUT / f"result-{tag}.json").write_text(json.dumps(dict(detail, result=result), indent=1))
    print(json.dumps({k: detail[k] for k in (
        "workload", "seed", "master", "defaultParallelism", "partitions", "nproc",
        "SPARK_DRIVER_MEM", "session_s", "warm_up_s", "ari")}))
    print(json.dumps(result))
    return 0


def measure(bench: Bench, args, t_start: float) -> tuple[dict, dict]:
    from layers import format_summary, run_metrics, summary

    calls: list[dict] = []
    # A traced run needs one untraced call for trace.overhead_s and two traced
    # calls to compare state.level0_jobs across calls. Beyond that, a call is
    # started only if it is expected to end within --seconds of the start
    # (session start and warm-up included), judged by the previous one, so
    # that a run's length stays near --seconds.
    min_calls = 3 if args.trace else 1
    cycle = 0.0
    while len(calls) < min_calls or time.perf_counter() - t_start + cycle <= args.seconds:
        traced = bool(args.trace) and len(calls) > 0
        setups = SETUP_REPEATS if not args.trace and not calls else 1
        t_call = time.perf_counter()
        rec = bench.call(traced, setups)
        cycle = (time.perf_counter() - t_call) - sum(rec["setup_s"][1:])
        calls.append(rec)
        print(
            f"perfbench: call {len(calls)} traced={int(traced)} ok={rec['ok']} "
            f"setup_s={statistics.median(rec['setup_s']):.3f} wall_s={rec.get('wall_s', 0):.3f} "
            f"objective={rec.get('objective')} {'; '.join(rec['errors'])}",
            file=sys.stderr,
        )
    twin = bench.seq_twin().call(True) if args.trace and bench.parallel else None
    failed = sum(not c["ok"] for c in calls) + (twin is not None and not twin["ok"])
    done = [c for c in calls if "wall_s" in c]
    traced_calls = [c for c in done if c["traced"]]
    plain = [c for c in done if not c["traced"]]
    errors: list[str] = []

    def med(key: str, cs: list[dict]) -> float:
        return float(statistics.median(c[key] for c in cs)) if cs else 0.0

    detail: dict = {
        "calls": [{k: v for k, v in c.items() if k != "layers"} for c in calls],
        "seq_twin": twin and {k: v for k, v in twin.items() if k != "layers"},
        # Not among the gated metrics: it moves 20% or more from seed to seed.
        "ari": {"value": med("ari", done), "unit": "index"},
    }
    if not args.trace:
        metrics = {
            "wall_s": (med("wall_s", plain), "s"),
            "setup_s": (float(statistics.median(x for c in calls for x in c["setup_s"])), "s"),
            "objective": (med("objective", plain), "value"),
            "peak_rss_mb": (med("peak_rss_mb", plain), "MB"),
        }
    else:
        t = bench.tracer
        per_call = [c["layers"] for c in traced_calls]
        level0_jobs = {c["state.level0_jobs"] for c in per_call}
        if len(level0_jobs) > 1:
            errors.append(f"state.level0_jobs differs across calls: {sorted(level0_jobs)}")
        pass_times = [s.duration for s in t.spans if s.name == "par_louvain._move_pass"]
        layer = run_metrics(per_call, pass_times) if per_call else {}
        if twin is not None:
            seq = twin.get("layers", {})
            layer.update({k: v for k, v in seq.items() if k.startswith("seq_louvain.")})
            if seq.get("trace.spark_jobs", 0):
                errors.append(f"sequential_cc ran {seq['trace.spark_jobs']:.0f} Spark jobs")
        layer.update(bench.probes())
        layer["trace.overhead_s"] = med("wall_s", traced_calls) - med("wall_s", plain)
        rows = summary(t.spans)
        text = format_summary(rows, layer)
        print(text, file=sys.stderr)
        OUT.mkdir(parents=True, exist_ok=True)
        tag = f"{args.workload}-s{bench.graph_args['seed']}{'-ref' if args.reference else ''}"
        (OUT / f"summary-{tag}.txt").write_text(text + "\n")
        (OUT / f"trace-{tag}.json").write_text(
            json.dumps({"summary": rows, "spans": [asdict(s) for s in t.spans]})
        )
        metrics = {k: (v, _unit(k)) for k, v in layer.items()}
    if errors:
        print("perfbench: " + "; ".join(errors), file=sys.stderr)
        failed += 1
    detail["errors"] = errors
    result = {
        "correct": failed == 0 and bool(done),
        "attempted": len(calls) + (twin is not None),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, detail


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_share", "_per_vertex")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
