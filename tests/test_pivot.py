"""Tests for KwikCluster / C4 / ClusterWild! (baselines.pivot)."""
import hashlib

import numpy as np
import pandas as pd
import pytest

from repro.baselines import pivot
from repro.baselines.pivot import kwikcluster, parallel_pivot
from repro.core import state
from repro.core.state import LevelGraph
from repro.graphs.gen import GenGraph, lite_graph, planted_partition
from repro.graphs.ops import to_spark

from tests.helpers import numpy_reported_objective
from tests.test_level_blocks import _JobCounter


def _clique(n: int) -> GenGraph:
    rows = [(i, j, 1.0) for i in range(n) for j in range(i + 1, n)]
    return GenGraph(name="clique", n=n, edges=pd.DataFrame(rows, columns=["u", "v", "w"]))


def _valid_pivot_clustering(g: GenGraph, labels: np.ndarray) -> None:
    """Every cluster is a pivot plus a subset of its neighbors."""
    adj = {}
    for u, v in zip(g.edges["u"].to_numpy(), g.edges["v"].to_numpy()):
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    for lbl in np.unique(labels):
        members = np.flatnonzero(labels == lbl)
        assert lbl in members, "pivot must belong to its own cluster"
        for m in members:
            if m != lbl:
                assert m in adj.get(lbl, set()), "member not adjacent to pivot"


class TestKwikCluster:
    def test_clique_single_cluster(self):
        g = _clique(6)
        labels = kwikcluster(g, seed=0)
        assert len(np.unique(labels)) == 1

    def test_pivot_structure(self):
        g = planted_partition(300, avg_deg=6, mixing=0.3, seed=1)
        labels = kwikcluster(g, seed=2)
        _valid_pivot_clustering(g, labels)

    def test_isolated_vertices_singletons(self):
        edges = pd.DataFrame({"u": [0], "v": [1], "w": [1.0]})
        g = GenGraph(name="iso", n=4, edges=edges)
        labels = kwikcluster(g, seed=0)
        assert labels[0] == labels[1]
        assert labels[2] != labels[3]

    def test_deterministic(self):
        g = planted_partition(200, avg_deg=5, mixing=0.3, seed=3)
        np.testing.assert_array_equal(kwikcluster(g, seed=5), kwikcluster(g, seed=5))


class TestParallelPivot:
    @pytest.mark.parametrize("variant", ["c4", "wild"])
    def test_structure(self, spark, variant):
        g = planted_partition(300, avg_deg=6, mixing=0.3, seed=4)
        gd = to_spark(spark, g, partitions=4)
        labels, rounds = parallel_pivot(gd, variant=variant, seed=1)
        assert rounds >= 1
        _valid_pivot_clustering(g, labels)

    def test_c4_matches_kwikcluster_partition(self, spark):
        """C4's concurrency control makes it serializable: with the same
        rank permutation it produces exactly KwikCluster's clustering."""
        g = planted_partition(250, avg_deg=6, mixing=0.3, seed=5)
        gd = to_spark(spark, g, partitions=4)
        labels_c4, _ = parallel_pivot(gd, variant="c4", seed=7)
        # Replay sequential KwikCluster with the same permutation.
        rng = np.random.default_rng(7)
        rank = rng.permutation(g.n).astype("int64")
        order = np.argsort(rank)
        adj = {}
        for u, v in zip(g.edges["u"].to_numpy(), g.edges["v"].to_numpy()):
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
        labels_seq = np.full(g.n, -1, dtype="int64")
        for p in order:
            if labels_seq[p] != -1:
                continue
            labels_seq[p] = p
            for nb in adj.get(p, ()):  # noqa: B905
                if labels_seq[nb] == -1:
                    labels_seq[nb] = p
        np.testing.assert_array_equal(labels_c4, labels_seq)

    def test_pivot_cc_objective_much_worse_than_positive(self, spark):
        """§C.1's point: pivots give poor/negative LambdaCC objective at
        general resolutions."""
        g = planted_partition(400, avg_deg=10, mixing=0.4, seed=6)
        gd = to_spark(spark, g, partitions=4)
        labels, _ = parallel_pivot(gd, variant="wild", seed=2)
        obj = numpy_reported_objective(g, labels, 0.85)
        assert obj < 0  # large λ punishes the coarse pivot clusters


def _persisted_ids(spark) -> set:
    return set(spark.sparkContext._jsc.getPersistentRDDs().keySet())


class TestStorageAndJobs:
    """With its level 0 in Spark (``DRIVER_ROWS = 0``), ``parallel_pivot``
    persists the input's level-0 blocks for its rounds: it releases them
    however it returns, and runs one job to build them plus one block job per
    round step."""

    @pytest.fixture(autouse=True)
    def _no_storage_left_by_earlier_tests(self, spark):
        # Spark's ContextCleaner drops a leftover persisted RDD whenever the JVM
        # collects its owner, which could fall inside a call counted here.
        for rdd in spark.sparkContext._jsc.getPersistentRDDs().values():
            rdd.unpersist()

    @pytest.fixture(autouse=True)
    def _level0_in_spark(self, monkeypatch):
        monkeypatch.setattr(state, "DRIVER_ROWS", 0)

    @pytest.fixture(scope="class")
    def gd(self, spark):
        return to_spark(spark, planted_partition(250, avg_deg=6, mixing=0.3, seed=5), partitions=4)

    @pytest.mark.parametrize("variant", ["c4", "wild"])
    def test_no_persisted_rdd_left(self, spark, gd, variant):
        before = _persisted_ids(spark)
        parallel_pivot(gd, variant=variant, seed=7)
        assert _persisted_ids(spark) == before

    @pytest.mark.parametrize("variant", ["c4", "wild"])
    def test_no_persisted_rdd_left_after_failure(self, spark, gd, variant, monkeypatch):
        real = LevelGraph.map_blocks
        calls = []

        def boom(b, shared):
            raise RuntimeError("injected block failure")

        def failing(level, fn, shared):
            calls.append(fn)
            return real(level, boom if len(calls) == 3 else fn, shared)

        monkeypatch.setattr(LevelGraph, "map_blocks", failing)
        before = _persisted_ids(spark)
        with pytest.raises(Exception, match="injected block failure"):
            parallel_pivot(gd, variant=variant, seed=7)
        assert calls == [pivot._min_nbr_ranks] * 3
        assert _persisted_ids(spark) == before

    @pytest.mark.parametrize("variant, jobs_per_round", [("c4", 2), ("wild", 1)])
    def test_job_count(self, spark, gd, monkeypatch, variant, jobs_per_round):
        counter = _JobCounter(spark, monkeypatch)
        _, rounds = counter.run("pivot", parallel_pivot, gd, variant=variant, seed=7)
        assert counter.jobs("pivot") == [1 + jobs_per_round * rounds]

    @pytest.mark.parametrize("variant", ["c4", "wild"])
    def test_driver_level_runs_one_job(self, spark, gd, monkeypatch, variant):
        """Below the default DRIVER_ROWS, level 0 is collected into the driver
        in one job, and the rounds run none; the outputs do not change."""
        expected = parallel_pivot(gd, variant=variant, seed=7)
        monkeypatch.undo()
        counter = _JobCounter(spark, monkeypatch)
        got = counter.run("pivot", parallel_pivot, gd, variant=variant, seed=7)
        assert counter.jobs("pivot") == [1]
        np.testing.assert_array_equal(got[0], expected[0])
        assert got[1] == expected[1]

    @pytest.mark.parametrize("partitions", [3, 8])
    @pytest.mark.parametrize("variant", ["c4", "wild"])
    def test_edgeless_graph_singletons(self, spark, partitions, variant):
        g = GenGraph(name="edgeless", n=7, edges=pd.DataFrame({"u": [], "v": [], "w": []}))
        labels, rounds = parallel_pivot(to_spark(spark, g, partitions=partitions), variant=variant)
        assert labels.tolist() == list(range(7)) and rounds >= 1


def _labels_hash(labels: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(labels, dtype="<i8").tobytes()).hexdigest()[:16]


def _isolated_graph() -> GenGraph:
    edges = pd.DataFrame({"u": [0, 1, 3, 6], "v": [1, 2, 6, 8], "w": [1.0] * 4})
    return GenGraph(name="iso", n=10, edges=edges)


class TestPinnedOutputs:
    """Fixed-seed outputs. KwikCluster's labels are pinned so that a change of
    how its CSR is built shows it visits the same neighbours in the same order;
    C4's and ClusterWild!'s labels and round counts, so that a change of how
    their rounds run shows the same pivots and joins."""

    @pytest.mark.parametrize(
        "graph, seed, expected_hash",
        [
            (lambda: planted_partition(300, avg_deg=6, mixing=0.3, seed=1), 2, "cb126bf48c753d72"),
            (lambda: lite_graph("amazon-lite"), 2, "5182c701ec106300"),
            (_isolated_graph, 4, "6f01dca257f0703f"),
        ],
        ids=["planted-300", "amazon-lite", "isolated"],
    )
    def test_labels(self, graph, seed, expected_hash):
        assert _labels_hash(kwikcluster(graph(), seed=seed)) == expected_hash

    def test_isolated_labels(self):
        labels = kwikcluster(_isolated_graph(), seed=4)
        assert labels.tolist() == [1, 1, 1, 3, 4, 5, 8, 7, 8, 9]

    @pytest.mark.parametrize(
        "graph, partitions, seed, expected",
        [
            (
                lambda: planted_partition(300, avg_deg=6, mixing=0.3, seed=4),
                4,
                1,
                {"c4": ("5280ef058280dfc4", 11), "wild": ("85ccc928d7262778", 9)},
            ),
            (
                lambda: planted_partition(250, avg_deg=6, mixing=0.3, seed=5),
                4,
                7,
                {"c4": ("d50a860113efda76", 10), "wild": ("a11e7679f9f12df4", 9)},
            ),
            (
                lambda: lite_graph("amazon-lite"),
                8,
                8,
                {"c4": ("774e1d00c848df50", 24), "wild": ("3c4cfe17912eb25e", 22)},
            ),
        ],
        ids=["planted-300", "planted-250", "amazon-lite"],
    )
    def test_parallel_pivot(self, spark, graph, partitions, seed, expected):
        gd = to_spark(spark, graph(), partitions=partitions)
        for variant, (expected_hash, expected_rounds) in expected.items():
            labels, rounds = parallel_pivot(gd, variant=variant, seed=seed)
            assert (_labels_hash(labels), rounds) == (expected_hash, expected_rounds), variant

    @pytest.mark.parametrize("partitions", [3, 8])
    def test_parallel_pivot_isolated_labels(self, spark, partitions):
        gd = to_spark(spark, _isolated_graph(), partitions=partitions)
        expected = {
            "c4": [1, 1, 1, 3, 4, 5, 3, 7, 8, 9],
            "wild": [0, 1, 1, 3, 4, 5, 3, 7, 8, 9],
        }
        for variant, expected_labels in expected.items():
            labels, rounds = parallel_pivot(gd, variant=variant, seed=4)
            assert (labels.tolist(), rounds) == (expected_labels, 5), variant
