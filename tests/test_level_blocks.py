"""The resident per-partition CSR blocks behind PARALLEL-CC: placement, Spark
job budget, storage hygiene, degenerate inputs and the synchronous kernel."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core import par_louvain
from repro.core.config import CCConfig
from repro.core.par_louvain import _sync_block_moves, parallel_cc
from repro.core.seq_louvain import build_csr, csr_objective
from repro.core.state import make_block, partition_of
from repro.graphs.gen import GenGraph, planted_partition
from repro.graphs.ops import to_spark

from tests.helpers import brute_cc


def _graph(n: int, rows: list[tuple[int, int, float]]) -> GenGraph:
    edges = pd.DataFrame(
        {
            "u": np.asarray([r[0] for r in rows], dtype="int64"),
            "v": np.asarray([r[1] for r in rows], dtype="int64"),
            "w": np.asarray([r[2] for r in rows], dtype="float64"),
        }
    )
    return GenGraph(name="tiny", n=n, edges=edges)


def _persistent_rdds(spark) -> int:
    return spark.sparkContext._jsc.getPersistentRDDs().size()


@pytest.fixture(scope="module")
def small_graph():
    return planted_partition(300, avg_deg=6, mixing=0.3, seed=24)


class TestPartitionOf:
    @pytest.mark.parametrize("partitions", [1, 3, 8])
    def test_matches_spark_repartition(self, spark, partitions):
        rng = np.random.default_rng(partitions)
        ids = np.concatenate(
            [
                np.arange(2000),
                rng.integers(0, 2**40, size=2000),
                np.array([2**32 - 1, 2**32, 2**32 + 1, 2**62, 2**63 - 1]),
            ]
        ).astype("int64")
        df = spark.createDataFrame(pd.DataFrame({"src": ids})).repartition(partitions, "src")
        got = df.select("src", F.spark_partition_id().alias("p")).toPandas()
        np.testing.assert_array_equal(
            partition_of(got["src"].to_numpy(), partitions), got["p"].to_numpy()
        )


class _JobCounter:
    """Runs each wrapped engine call under its own Spark job group."""

    def __init__(self, spark, monkeypatch):
        self.sc = spark.sparkContext
        self.groups: dict[str, list[str]] = {}
        self.monkeypatch = monkeypatch

    def wrap(self, name: str) -> None:
        orig = getattr(par_louvain, name)

        def wrapper(*args, **kwargs):
            group = f"budget-{name}-{len(self.groups.setdefault(name, []))}"
            self.groups[name].append(group)
            outer = self.sc.getLocalProperty("spark.jobGroup.id")
            self.sc.setJobGroup(group, name)
            try:
                return orig(*args, **kwargs)
            finally:
                self.sc.setLocalProperty("spark.jobGroup.id", outer)

        self.monkeypatch.setattr(par_louvain, name, wrapper)

    def jobs(self, name: str) -> list[int]:
        self.sc._jsc.sc().listenerBus().waitUntilEmpty()
        tracker = self.sc.statusTracker()
        return [len(tracker.getJobIdsForGroup(g)) for g in self.groups.get(name, [])]


class TestJobBudget:
    def test_one_job_per_step(self, spark, small_graph, monkeypatch):
        gd = to_spark(spark, small_graph, partitions=4)
        gd.edges.cache().count()
        counter = _JobCounter(spark, monkeypatch)
        for name in ("level0", "_move_pass", "compress", "cc_objective"):
            counter.wrap(name)
        cfg = CCConfig(resolution=0.3, num_iter=3, max_levels=3, seed=12, partitions=4)
        _, stats = parallel_cc(gd, cfg)
        gd.edges.unpersist()
        assert counter.jobs("level0") == [1]
        passes = counter.jobs("_move_pass")
        assert len(passes) >= stats.total_rounds and set(passes) == {1}
        compresses = counter.jobs("compress")
        assert len(compresses) == len(stats.levels) - 1 >= 1
        assert max(compresses) <= 2
        assert counter.jobs("cc_objective") == [1]


class TestStorageHygiene:
    @pytest.mark.parametrize("cached", [True, False])
    def test_caller_storage_left_alone(self, spark, small_graph, cached):
        gd = to_spark(spark, small_graph, partitions=4)
        if cached:
            gd.edges.cache().count()
        parallel_cc(gd, CCConfig(resolution=0.3, num_iter=2, seed=1, partitions=4))
        assert gd.edges.is_cached == cached
        gd.edges.unpersist()

    def test_second_call_runs_as_many_jobs(self, spark, small_graph):
        gd = to_spark(spark, small_graph, partitions=4)
        gd.edges.cache().count()
        sc = spark.sparkContext
        cfg = CCConfig(resolution=0.3, num_iter=2, seed=1, partitions=4)
        counts = []
        for i in range(2):
            sc.setJobGroup(f"repeat-call-{i}", "parallel_cc")
            try:
                parallel_cc(gd, cfg)
            finally:
                sc.setLocalProperty("spark.jobGroup.id", None)
            sc._jsc.sc().listenerBus().waitUntilEmpty()
            counts.append(len(sc.statusTracker().getJobIdsForGroup(f"repeat-call-{i}")))
        gd.edges.unpersist()
        assert counts[0] == counts[1]

    def test_no_persisted_rdd_left_after_call(self, spark, small_graph):
        gd = to_spark(spark, small_graph, partitions=4)
        gd.edges.cache().count()
        before = _persistent_rdds(spark)
        parallel_cc(gd, CCConfig(resolution=0.3, num_iter=3, max_levels=3, seed=2, partitions=4))
        assert _persistent_rdds(spark) == before
        gd.edges.unpersist()

    def test_no_persisted_rdd_left_after_failure(self, spark, small_graph, monkeypatch):
        gd = to_spark(spark, small_graph, partitions=4)
        gd.edges.cache().count()
        real = par_louvain.compress
        calls = []

        def failing(level, *args, **kwargs):
            calls.append(level.n)
            if len(calls) == 2:  # the compress of depth 1
                raise RuntimeError("injected compress failure")
            return real(level, *args, **kwargs)

        monkeypatch.setattr(par_louvain, "compress", failing)
        before = _persistent_rdds(spark)
        cfg = CCConfig(resolution=0.3, num_iter=3, max_levels=4, seed=2, partitions=4)
        with pytest.raises(RuntimeError, match="injected"):
            parallel_cc(gd, cfg)
        assert len(calls) == 2
        assert _persistent_rdds(spark) == before
        gd.edges.unpersist()


class TestDegenerateInputs:
    def _check(self, spark, g: GenGraph, cfg: CCConfig):
        gd = to_spark(spark, g, partitions=cfg.partitions)
        assign, stats = parallel_cc(gd, cfg)
        assert len(assign) == g.n
        assert stats.n_clusters == len(np.unique(assign))
        assert stats.objective == pytest.approx(
            brute_cc(g, assign, cfg.resolution), rel=1e-9, abs=1e-9
        )
        return assign, stats

    def test_partitions_without_edges(self, spark):
        # Three source vertices cannot fill eight partitions.
        g = _graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        assign, _ = self._check(spark, g, CCConfig(resolution=0.1, num_iter=5, seed=3, partitions=8))
        assert len(np.unique(assign)) == 1

    def test_isolated_vertices_only(self, spark):
        g = _graph(5, [])
        assign, stats = self._check(spark, g, CCConfig(resolution=0.5, num_iter=5, seed=4, partitions=4))
        np.testing.assert_array_equal(assign, np.arange(5))
        assert stats.objective == 0.0 and len(stats.levels) == 1

    def test_isolated_vertices_only_modularity(self, spark):
        g = _graph(4, [])
        cfg = CCConfig(objective="modularity", num_iter=3, seed=4, partitions=2)
        assign, stats = parallel_cc(to_spark(spark, g, partitions=2), cfg)
        np.testing.assert_array_equal(assign, np.arange(4))
        assert stats.two_w == 0.0 and stats.reported_objective == 0.0

    def test_single_vertex(self, spark):
        g = _graph(1, [])
        assign, stats = self._check(spark, g, CCConfig(resolution=0.5, num_iter=5, seed=5, partitions=2))
        np.testing.assert_array_equal(assign, [0])
        assert stats.n_clusters == 1

    def test_max_levels_one(self, spark, small_graph):
        cfg = CCConfig(resolution=0.3, num_iter=4, max_levels=1, seed=6, partitions=4)
        gd = to_spark(spark, small_graph, partitions=4)
        assign, stats = parallel_cc(gd, cfg)
        assert len(stats.levels) == 1
        assert stats.levels[0].time_compress == 0.0
        csr = build_csr(small_graph.edges, small_graph.n, np.ones(small_graph.n))
        assert stats.objective == pytest.approx(csr_objective(csr, assign, 0.3), rel=1e-9)

    def test_partition_count_differs_from_input(self, spark, small_graph):
        """Input edges with another partition count are routed like repartition(P, "src")."""
        cfg = CCConfig(resolution=0.3, num_iter=4, seed=7, partitions=4)
        a_same, s_same = parallel_cc(to_spark(spark, small_graph, partitions=4), cfg)
        a_other, s_other = parallel_cc(to_spark(spark, small_graph, partitions=3), cfg)
        np.testing.assert_array_equal(a_same, a_other)
        assert s_same.objective == s_other.objective


def _sync_reference(src, dst, w, a, K, k, lam, U, tol, active):
    """Best move per active vertex, one vertex at a time (the appendix Δ formula)."""
    moves = {}
    for v in sorted(set(src[active[src]].tolist())):
        wc: dict[int, float] = {}
        for d, x in zip(dst[src == v].tolist(), w[src == v].tolist()):
            wc[int(a[d])] = wc.get(int(a[d]), 0.0) + x
        cv = int(a[v])
        base = wc.get(cv, 0.0) - lam * k[v] * (K[cv] - k[v])
        best_c, best_d = U + v, -base  # detach into a fresh singleton
        for c in sorted(wc, reverse=True):  # ties go to the smallest id
            d = (wc[c] - lam * k[v] * K[c]) - base
            if c != cv and d >= best_d:
                best_c, best_d = c, d
        if best_d > tol:
            moves[v] = (best_c, best_d)
    return moves


class TestSyncKernel:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_per_vertex_reference(self, seed):
        rng = np.random.default_rng(seed)
        n, m = 40, 160
        src = rng.integers(0, n, size=m)
        dst = rng.integers(0, n, size=m)
        keep = src != dst
        # Integer weights keep every sum exact whatever the summation order.
        src, dst, w = src[keep], dst[keep], rng.integers(1, 4, size=keep.sum()).astype(float)
        a = rng.integers(0, 6, size=n)
        k = rng.integers(1, 3, size=n).astype(float)
        K = np.bincount(a, weights=k, minlength=6)
        active = rng.random(n) < 0.7
        got_v, got_c, got_d = _sync_block_moves(
            make_block(src, dst, w), a, K, k, 0.2, 6, 1e-9, False, None, active
        )
        exp = _sync_reference(src, dst, w, a, K, k, 0.2, 6, 1e-9, active)
        assert sorted(got_v.tolist()) == sorted(exp)
        for v, c, d in zip(got_v.tolist(), got_c.tolist(), got_d.tolist()):
            assert (c, d) == exp[v]
