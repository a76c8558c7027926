"""The resident per-partition CSR blocks behind PARALLEL-CC: placement, Spark
job budget, storage hygiene, degenerate inputs and the synchronous kernel."""
import itertools

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core import par_louvain, state
from repro.core.config import CCConfig
from repro.core.par_louvain import _sync_block_moves, parallel_cc
from repro.core.seq_louvain import sequential_cc
from repro.core.state import make_block
from repro.graphs.gen import GenGraph, planted_partition
from repro.graphs.ops import partition_of, to_spark

from tests.helpers import (
    brute_cc,
    graph_from_rows as _graph,
    numpy_reported_objective,
    small_weighted_graph,
)


def _persistent_rdds(spark) -> int:
    return spark.sparkContext._jsc.getPersistentRDDs().size()


@pytest.fixture(scope="module", autouse=True)
def _no_storage_left_by_earlier_modules(spark):
    """Release what earlier test modules left persisted before counting here.

    Spark's ContextCleaner drops a leftover persisted RDD whenever the JVM
    collects its owner, which can fall inside a call whose before/after
    counts a test compares. (``connected_components`` and ``triangle_list``
    used to leave such RDDs; their own tests now check that they do not.)
    """
    for rdd in spark.sparkContext._jsc.getPersistentRDDs().values():
        rdd.unpersist()


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


_COUNTER_IDS = itertools.count()


class _JobCounter:
    """Runs each wrapped engine call under its own Spark job group."""

    def __init__(self, spark, monkeypatch):
        self.sc = spark.sparkContext
        self.prefix = f"budget-{next(_COUNTER_IDS)}"
        self.groups: dict[str, list[str]] = {}
        self.on_driver: dict[str, list[bool]] = {}  # per call: ran on a driver level
        self.monkeypatch = monkeypatch

    def run(self, name: str, fn, *args, **kwargs):
        group = f"{self.prefix}-{name}-{len(self.groups.setdefault(name, []))}"
        self.groups[name].append(group)
        outer = self.sc.getLocalProperty("spark.jobGroup.id")
        self.sc.setJobGroup(group, name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.sc.setLocalProperty("spark.jobGroup.id", outer)

    def wrap(self, name: str) -> None:
        orig = getattr(par_louvain, name)

        def wrapped(*args, **kwargs):
            # The first argument of every wrapped step but level0 is a level.
            self.on_driver.setdefault(name, []).append(getattr(args[0], "driver", False))
            return self.run(name, orig, *args, **kwargs)

        self.monkeypatch.setattr(par_louvain, name, wrapped)

    def jobs(self, name: str) -> list[int]:
        self.sc._jsc.sc().listenerBus().waitUntilEmpty()
        tracker = self.sc.statusTracker()
        return [len(tracker.getJobIdsForGroup(g)) for g in self.groups.get(name, [])]

    def tasks(self, name: str) -> list[int]:
        """Completed Spark tasks of each call to ``name``.

        A stage that a later job reuses (a shuffle or cached input) is listed
        by that job too; its tasks are credited to the first job listing it.
        """
        self.sc._jsc.sc().listenerBus().waitUntilEmpty()
        tracker = self.sc.statusTracker()
        jobs = sorted(
            (job, group)
            for groups in self.groups.values()
            for group in groups
            for job in tracker.getJobIdsForGroup(group)
        )
        owner: dict[int, str] = {}
        for job, group in jobs:
            for stage in tracker.getJobInfo(job).stageIds:
                owner.setdefault(stage, group)
        return [
            sum(tracker.getStageInfo(s).numCompletedTasks for s, g in owner.items() if g == group)
            for group in self.groups.get(name, [])
        ]

    def stages(self, name: str) -> list[int]:
        """Stages of each call to ``name``, summed over its jobs (a shuffle adds one)."""
        self.sc._jsc.sc().listenerBus().waitUntilEmpty()
        tracker = self.sc.statusTracker()
        return [
            sum(len(tracker.getJobInfo(j).stageIds) for j in tracker.getJobIdsForGroup(group))
            for group in self.groups.get(name, [])
        ]


class TestJobBudget:
    def test_one_job_per_step(self, spark, small_graph, monkeypatch):
        """With every level in Spark (DRIVER_ROWS = 0), each step is one job."""
        monkeypatch.setattr(state, "DRIVER_ROWS", 0)
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

    def test_one_task_wave_per_step(self, spark, small_graph, monkeypatch):
        """P=8 logical blocks run in S = min(8, cores) tasks per move pass and objective
        (every level in Spark)."""
        monkeypatch.setattr(state, "DRIVER_ROWS", 0)
        partitions = 8
        tasks = min(partitions, spark.sparkContext.defaultParallelism)
        gd = to_spark(spark, small_graph, partitions=partitions)
        counter = _JobCounter(spark, monkeypatch)
        counter.run("input", lambda: gd.edges.cache().count())
        for name in ("level0", "_move_pass", "compress", "cc_objective"):
            counter.wrap(name)
        cfg = CCConfig(resolution=0.3, num_iter=3, max_levels=3, seed=12, partitions=partitions)
        _, stats = parallel_cc(gd, cfg)
        gd.edges.unpersist()
        assert stats.tasks == tasks
        assert max(counter.tasks("level0")) <= partitions  # the input's partitions
        assert set(counter.tasks("_move_pass")) == {tasks}
        compresses = counter.tasks("compress")
        assert len(compresses) >= 1 and max(compresses) <= 2 * tasks
        assert counter.tasks("cc_objective") == [tasks]

    def test_driver_levels_launch_no_jobs(self, spark, small_graph, monkeypatch):
        """An async level 0 below DRIVER_ROWS costs one level0 job (the Arrow
        collect of the input); it and the coarse levels are held in the driver,
        and their passes, compress and objective launch no job."""
        partitions = 8
        gd = to_spark(spark, small_graph, partitions=partitions)
        counter = _JobCounter(spark, monkeypatch)
        counter.run("input", lambda: gd.edges.cache().count())
        for name in ("level0", "_move_pass", "compress", "cc_objective"):
            counter.wrap(name)
        cfg = CCConfig(resolution=0.3, num_iter=3, max_levels=3, seed=12, partitions=partitions)
        _, stats = parallel_cc(gd, cfg)
        gd.edges.unpersist()
        assert all(l.driver for l in stats.levels)
        assert len(stats.levels) == 3
        assert stats.tasks == 0
        assert counter.jobs("level0") == [1]
        for name in ("_move_pass", "compress"):
            assert set(counter.on_driver[name]) == {True}
            assert set(counter.jobs(name)) == {0}
        assert counter.on_driver["compress"] == [True, True]
        assert counter.on_driver["cc_objective"] == [True]
        assert counter.jobs("cc_objective") == [0]

    def test_small_child_of_large_level(self, spark, small_graph, monkeypatch):
        """A level 0 of DRIVER_ROWS rows is compressed by the shuffle job, which
        also brings the small child to the driver: one job, the same outputs as
        building the child from collected pieces."""
        gd = to_spark(spark, small_graph, partitions=4)
        cfg = CCConfig(resolution=0.3, num_iter=3, max_levels=3, seed=12, partitions=4)
        expected, expected_stats = parallel_cc(gd, cfg)
        monkeypatch.setattr(state, "DRIVER_ROWS", 2 * len(small_graph.edges))
        counter = _JobCounter(spark, monkeypatch)
        counter.wrap("compress")
        assign, stats = parallel_cc(gd, cfg)
        assert stats.levels[0].m_directed == state.DRIVER_ROWS
        # Level 0's clustering has too many clusters to bound the child
        # below DRIVER_ROWS, so its compress takes the shuffle path.
        n_c = stats.levels[1].n
        assert n_c * (n_c - 1) >= state.DRIVER_ROWS
        assert [l.driver for l in stats.levels] == [False, True, True]
        assert counter.jobs("compress") == [1, 0]
        assert counter.stages("compress") == [2, 0]
        np.testing.assert_array_equal(assign, expected)
        assert stats.objective == expected_stats.objective

    def test_few_clusters_of_large_level(self, spark, small_graph, monkeypatch):
        """A level of DRIVER_ROWS rows clustered into n_c clusters with
        n_c·(n_c − 1) < DRIVER_ROWS has a child sure to be a driver level: its
        compress collects the pieces in one job of S tasks without a shuffle
        stage, and builds the same child as the shuffle path."""
        partitions = 8
        tasks = min(partitions, spark.sparkContext.defaultParallelism)
        monkeypatch.setattr(state, "DRIVER_ROWS", 2 * len(small_graph.edges))
        gd = to_spark(spark, small_graph, partitions=partitions)
        lvl = state.level0(gd, np.ones(small_graph.n), partitions=partitions)
        try:
            assert lvl.m_directed == state.DRIVER_ROWS and not lvl.driver
            dense, n_c = state.densify(np.random.default_rng(3).integers(0, 20, small_graph.n))
            assert n_c * (n_c - 1) < state.DRIVER_ROWS and lvl.children_in_driver(n_c)
            counter = _JobCounter(spark, monkeypatch)
            got = counter.run("collect", state.compress, lvl, dense, n_c, partitions=partitions)
            monkeypatch.setattr(state.LevelGraph, "children_in_driver", lambda self, n_c: self.driver)
            exp = counter.run("shuffle", state.compress, lvl, dense, n_c, partitions=partitions)
        finally:
            lvl.unpersist()
        assert counter.jobs("collect") == [1] and counter.stages("collect") == [1]
        assert counter.tasks("collect") == [tasks]
        assert counter.jobs("shuffle") == [1] and counter.stages("shuffle") == [2]
        assert got.driver and exp.driver
        assert [b.part for b in got.blocks] == [b.part for b in exp.blocks]
        for g_b, e_b in zip(got.blocks, exp.blocks):
            for name in state.Block._fields[:-1]:
                np.testing.assert_array_equal(getattr(g_b, name), getattr(e_b, name))
        for name in ("k", "sq", "selfw", "deg"):
            np.testing.assert_array_equal(getattr(got, name), getattr(exp, name))
        assert (got.n, got.m_directed) == (exp.n, exp.m_directed)

    # PAR-MOD sync: its level 0 (small_graph, far below 2^21 rows) is
    # collected into the driver.
    _SYNC = CCConfig(
        resolution=1.0, objective="modularity", async_moves=False, frontier="all",
        num_iter=3, max_levels=3, seed=12, partitions=8,
    )

    @staticmethod
    def _count_steps(spark, graph, monkeypatch, cfg):
        gd = to_spark(spark, graph, partitions=cfg.partitions)
        counter = _JobCounter(spark, monkeypatch)
        counter.run("input", lambda: gd.edges.cache().count())
        for name in ("level0", "_move_pass", "compress", "cc_objective"):
            counter.wrap(name)
        try:
            _, stats = parallel_cc(gd, cfg)
        finally:
            gd.edges.unpersist()
        return counter, stats

    def test_sync_level0_in_driver(self, spark, small_graph, monkeypatch):
        """A synchronous level 0 below DRIVER_ROWS costs one level0 job (the Arrow
        collect of the input); its passes, compress and objective, and every
        level below it, run in the driver with no job."""
        counter, stats = self._count_steps(spark, small_graph, monkeypatch, self._SYNC)
        assert len(stats.levels) >= 2 and all(l.driver for l in stats.levels)
        assert stats.tasks == 0
        assert counter.jobs("level0") == [1]
        assert counter.on_driver["compress"][0] and counter.on_driver["cc_objective"] == [True]
        for name in ("_move_pass", "compress", "cc_objective"):
            jobs = counter.jobs(name)
            assert len(jobs) >= 1 and set(jobs) == {0}, name

    def test_sync_level0_with_every_level_in_spark(self, spark, small_graph, monkeypatch):
        """With DRIVER_ROWS = 0 the same synchronous config keeps one job per step."""
        monkeypatch.setattr(state, "DRIVER_ROWS", 0)
        counter, stats = self._count_steps(spark, small_graph, monkeypatch, self._SYNC)
        assert not any(l.driver for l in stats.levels)
        assert stats.tasks == min(self._SYNC.partitions, spark.sparkContext.defaultParallelism)
        assert counter.jobs("level0") == [1]
        passes = counter.jobs("_move_pass")
        assert len(passes) >= stats.total_rounds and set(passes) == {1}
        compresses = counter.jobs("compress")
        assert len(compresses) == len(stats.levels) - 1 >= 1 and 1 <= min(compresses)
        assert max(compresses) <= 2
        assert counter.jobs("cc_objective") == [1]

    def test_sync_bound_is_inherited(self, spark, small_graph, monkeypatch):
        """A synchronous level 0 of DRIVER_ROWS rows stays in Spark; its child,
        below the same bound, is held in the driver, with the same outputs."""
        gd = to_spark(spark, small_graph, partitions=self._SYNC.partitions)
        expected, expected_stats = parallel_cc(gd, self._SYNC)
        monkeypatch.setattr(state, "DRIVER_ROWS", expected_stats.levels[0].m_directed)
        assign, stats = parallel_cc(gd, self._SYNC)
        assert stats.levels[0].m_directed >= state.DRIVER_ROWS
        assert not stats.levels[0].driver
        assert stats.levels[1].m_directed < state.DRIVER_ROWS
        assert all(l.driver for l in stats.levels[1:])
        np.testing.assert_array_equal(assign, expected)
        assert stats.objective == expected_stats.objective

    def test_async_level0_stays_in_spark(self, spark, small_graph, monkeypatch):
        """An async level 0 of DRIVER_ROWS rows stays in Spark, as a synchronous
        one does: one job per level-0 pass."""
        cfg = self._SYNC.with_(async_moves=True)
        monkeypatch.setattr(state, "DRIVER_ROWS", 2 * len(small_graph.edges))
        counter, stats = self._count_steps(spark, small_graph, monkeypatch, cfg)
        assert stats.levels[0].m_directed == state.DRIVER_ROWS
        assert not stats.levels[0].driver
        assert stats.tasks == min(cfg.partitions, spark.sparkContext.defaultParallelism)
        assert counter.jobs("level0") == [1]
        passes = zip(counter.jobs("_move_pass"), counter.on_driver["_move_pass"])
        level0_passes = [j for j, on_driver in passes if not on_driver]
        assert len(level0_passes) >= stats.levels[0].iters and set(level0_passes) == {1}

    @pytest.mark.parametrize("weights", ["unit", "fractional"])
    def test_refine_off_scores_deepest_level(self, spark, small_graph, monkeypatch, weights):
        """Without refine the objective is scored on the deepest level, here a
        driver level: no cc_objective job runs, and the value is the level-0
        objective of the returned assignment."""
        g = small_graph
        if weights == "fractional":
            w = np.random.default_rng(4).uniform(0.2, 2.0, len(g.edges))
            g = GenGraph(name="fractional", n=g.n, edges=g.edges.assign(w=w))
        gd = to_spark(spark, g, partitions=4)
        counter = _JobCounter(spark, monkeypatch)
        counter.wrap("cc_objective")
        cfg = CCConfig(resolution=0.3, num_iter=3, max_levels=3, seed=12, partitions=4, refine=False)
        assign, stats = parallel_cc(gd, cfg)
        assert len(stats.levels) == 3 and stats.levels[-1].driver
        assert counter.on_driver["cc_objective"] == [True]
        assert counter.jobs("cc_objective") == [0]
        lvl = state.level0(gd, np.ones(g.n), partitions=4)
        try:
            expected = state.cc_objective(lvl, assign, 0.3)
        finally:
            lvl.unpersist()
        if weights == "unit":
            assert stats.objective == expected
        else:
            assert stats.objective == pytest.approx(expected, rel=1e-12)


class TestCollectedLevel0:
    """A level 0 collected into the driver holds the blocks that the Spark
    path builds from the same input."""

    @pytest.mark.parametrize("partitions", [1, 3, 8])
    def test_blocks_equal_spark_blocks(self, spark, small_graph, monkeypatch, partitions):
        w = np.random.default_rng(partitions).uniform(0.2, 2.0, len(small_graph.edges))
        g = GenGraph(name="fractional", n=small_graph.n, edges=small_graph.edges.assign(w=w))
        gd = to_spark(spark, g, partitions=partitions)
        assert gd.edges.rdd.getNumPartitions() == partitions
        got = state.level0(gd, None, partitions=partitions)
        with monkeypatch.context() as m:
            m.setattr(state, "DRIVER_ROWS", 0)
            exp = state.level0(gd, None, partitions=partitions)
        try:
            assert got.driver and not exp.driver
            exp_blocks = sorted(exp.blocks.collect(), key=lambda b: b.part)
        finally:
            exp.unpersist()
        assert [b.part for b in got.blocks] == [b.part for b in exp_blocks]
        assert len(got.blocks) == partitions
        for g_b, e_b in zip(got.blocks, exp_blocks):
            for name in state.Block._fields:
                g_x, e_x = np.asarray(getattr(g_b, name)), np.asarray(getattr(e_b, name))
                assert g_x.dtype == e_x.dtype, name
                np.testing.assert_array_equal(g_x, e_x)
        for name in ("k", "sq", "selfw", "deg"):
            np.testing.assert_array_equal(getattr(got, name), getattr(exp, name))
        assert got.m_directed == exp.m_directed == 2 * len(g.edges)


class TestMaterialize:
    """Where ``state._materialize`` holds a block RDD, by its total row count."""

    @staticmethod
    def _skewed(spark):
        # Logical block 1 holds 100 of the 107 rows; P = 8 logical blocks.
        rows = {0: 3, 1: 100, 5: 4}
        blocks = [
            make_block(np.full(r, p), np.arange(r) + 10, np.ones(r), part=p)
            for p, r in rows.items()
        ]
        return spark.sparkContext.parallelize(blocks, 2), 8

    def test_small_skewed_level_is_collected(self, spark):
        """107 rows < 120: held in the driver. Block 1 exceeds twice a fair share
        (2·120/8 = 30), so the summary job does not return it and a second job
        collects the persisted blocks; the RDD is released either way."""
        rdd, partitions = self._skewed(spark)
        before = _persistent_rdds(spark)
        blocks, m, deg, _ = state._materialize(rdd, 200, partitions, driver_rows=120)
        assert _persistent_rdds(spark) == before
        assert isinstance(blocks, list) and [b.part for b in blocks] == [0, 1, 5]
        assert m == 107 and deg.sum() == 107 and deg[1] == 100

    def test_level_at_threshold_stays_in_spark(self, spark):
        rdd, partitions = self._skewed(spark)
        before = _persistent_rdds(spark)
        blocks, m, _, _ = state._materialize(rdd, 200, partitions, driver_rows=107)
        assert not isinstance(blocks, list) and m == 107
        assert _persistent_rdds(spark) == before + 1
        blocks.unpersist()


class TestCoarseBlock:
    @pytest.mark.parametrize("pieces", [1, 3])
    def test_matches_aggregating_all_rows(self, pieces):
        """A partition's single aggregated piece is taken as it is, several are
        aggregated again; both give the block of aggregating every row once."""
        rng = np.random.default_rng(pieces)
        parts = [
            state.aggregate(rng.integers(0, 20, 300), rng.integers(0, 20, 300), rng.random(300))
            for _ in range(pieces)
        ]
        src, dst, w = (np.concatenate(c) for c in zip(*parts))
        assert state._aggregated(src, dst) == (pieces == 1)
        s, d, x = state.aggregate(src, dst, w)
        loop = s == d
        exp = make_block(s[~loop], d[~loop], x[~loop], s[loop], x[loop], part=2)
        got = state.coarse_block(src, dst, w, part=2)
        assert got.part == exp.part
        for field in state.Block._fields[:-1]:
            np.testing.assert_array_equal(getattr(got, field), getattr(exp, field))


def _lexsort_aggregate(src, dst, w):
    """``state.aggregate`` as a lexsort by ``(src, dst)``, then one ``reduceat``."""
    order = np.lexsort((dst, src))
    src, dst, w = src[order], dst[order], w[order]
    if len(src) == 0:
        return src, dst, w
    new = np.ones(len(src), dtype=bool)
    new[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
    starts = np.flatnonzero(new)
    return src[starts], dst[starts], np.add.reduceat(w, starts)


class TestAggregate:
    @pytest.mark.parametrize(
        "n_src, n_dst, rows",
        [(50, 7, 2000), (7, 50, 2000), (3000, 3000, 5000), (1, 1, 40), (5, 5, 0)],
    )
    def test_matches_lexsort_bit_for_bit(self, n_src, n_dst, rows):
        """The packed-key sort gives the lexsort's rows, in its order, with the
        same sums: groups of fractional weights are summed in the same order."""
        rng = np.random.default_rng(n_src + n_dst + rows)
        src, dst = rng.integers(0, n_src, rows), rng.integers(0, n_dst, rows)
        w = rng.uniform(0.1, 2.0, rows)
        for got, exp in zip(state.aggregate(src, dst, w), _lexsort_aggregate(src, dst, w)):
            assert got.dtype == exp.dtype and got.tobytes() == exp.tobytes()


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
        assert stats.objective == pytest.approx(
            numpy_reported_objective(small_graph, assign, 0.3), rel=1e-9
        )

    @pytest.mark.parametrize("objective", ["cc", "modularity"])
    @pytest.mark.parametrize(
        "case", ["zero-edges", "n=0", "n=1", "isolated", "fractional", "max_levels=1"]
    )
    def test_sync_level0_in_driver(self, spark, small_graph, case, objective):
        """The synchronous kernel holds each of these level 0s in the driver
        (an edgeless input collects one empty batch): every call returns a
        dense clustering with its exact objective and leaves nothing persisted."""
        g, levels = {
            "zero-edges": (_graph(5, []), 20),
            "n=0": (_graph(0, []), 20),
            "n=1": (_graph(1, []), 20),
            "isolated": (_graph(7, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0), (4, 5, 2.0)]), 20),
            "fractional": (small_weighted_graph(3, n=40), 20),
            "max_levels=1": (small_graph, 1),
        }[case]
        resolution = 0.3 if objective == "cc" else 1.0
        cfg = CCConfig(
            resolution=resolution, objective=objective, async_moves=False, num_iter=5,
            max_levels=levels, seed=9, partitions=4,
        )
        gd = to_spark(spark, g, partitions=cfg.partitions)
        before = _persistent_rdds(spark)
        assign, stats = parallel_cc(gd, cfg)
        assert _persistent_rdds(spark) == before
        assert stats.levels[0].driver and stats.tasks == 0
        assert len(assign) == g.n
        np.testing.assert_array_equal(np.unique(assign), np.arange(stats.n_clusters))
        assert stats.reported_objective == pytest.approx(
            numpy_reported_objective(g, assign, resolution, objective), rel=1e-9, abs=1e-9
        )
        if len(g.edges) == 0:
            np.testing.assert_array_equal(assign, np.arange(g.n))
            assert stats.reported_objective == 0.0 and len(stats.levels) == 1
        if levels == 1:
            assert len(stats.levels) == 1 and stats.levels[0].time_compress == 0.0

    def test_partition_count_differs_from_input(self, spark, small_graph):
        """Input edges with another partition count are routed like repartition(P, "src")."""
        cfg = CCConfig(resolution=0.3, num_iter=4, seed=7, partitions=4)
        a_same, s_same = parallel_cc(to_spark(spark, small_graph, partitions=4), cfg)
        a_other, s_other = parallel_cc(to_spark(spark, small_graph, partitions=3), cfg)
        np.testing.assert_array_equal(a_same, a_other)
        assert s_same.objective == s_other.objective


def _clusters(assign: np.ndarray) -> set[frozenset[int]]:
    return {frozenset(np.flatnonzero(assign == c).tolist()) for c in np.unique(assign)}


# Name → (graph, resolution, expected clusters).
_DEGENERATE = {
    "n=0": (_graph(0, []), 0.3, []),
    # Two triangles bridged by a zero-weight edge, and a pair joined only by
    # one: zero weight never pulls vertices together.
    "zero-weights": (
        _graph(
            8,
            [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0), (3, 4, 1.0), (3, 5, 1.0), (4, 5, 1.0),
             (2, 3, 0.0), (6, 7, 0.0)],
        ),
        0.3,
        [[0, 1, 2], [3, 4, 5], [6], [7]],
    ),
    # λ=0 (γ=0): every connected component becomes one cluster.
    "lambda=0": (
        _graph(
            16,
            [(i, (i + 1) % 10, 1.0) for i in range(10)] + [(0, 5, 2.0), (2, 7, 0.5)]
            + [(i, j, 1.0) for i in range(10, 15) for j in range(i + 1, 15)],
        ),
        0.0,
        [list(range(10)), list(range(10, 15)), [15]],
    ),
}


class TestDegenerateObjectives:
    """Degenerate inputs on both engines and both objectives: the reported
    objective matches a numpy recomputation and no storage is left behind."""

    @pytest.mark.parametrize("engine", ["parallel", "sequential"])
    @pytest.mark.parametrize("objective", ["cc", "modularity"])
    @pytest.mark.parametrize("case", list(_DEGENERATE))
    def test_objective_and_storage(self, spark, case, objective, engine):
        g, resolution, clusters = _DEGENERATE[case]
        cfg = CCConfig(
            resolution=resolution, objective=objective, num_iter=5, seed=8, partitions=4
        )
        before = _persistent_rdds(spark)
        if engine == "parallel":
            assign, stats = parallel_cc(to_spark(spark, g, partitions=4), cfg)
        else:
            assign, stats = sequential_cc(g, cfg)
        assert _persistent_rdds(spark) == before
        assert len(assign) == g.n
        assert stats.reported_objective == pytest.approx(
            numpy_reported_objective(g, assign, resolution, objective), rel=1e-9, abs=1e-9
        )
        assert _clusters(assign) == {frozenset(c) for c in clusters}


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
