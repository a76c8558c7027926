"""Tests for Tectonic's connected components (baselines.tectonic) vs a union-find oracle."""
import numpy as np
import pandas as pd
import pytest

from repro.baselines import tectonic
from repro.baselines.tectonic import connected_components
from repro.core import state
from repro.core.state import LevelGraph
from repro.graphs import gen
from repro.graphs.ops import to_spark


def _union_find(n: int, edges: pd.DataFrame) -> np.ndarray:
    parent = np.arange(n)

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in zip(edges["u"].to_numpy(), edges["v"].to_numpy()):
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
    return np.array([find(x) for x in range(n)])


def _persisted_ids(spark) -> set:
    return set(spark.sparkContext._jsc.getPersistentRDDs().keySet())


class TestConnectedComponents:
    def test_two_cliques(self, spark):
        rows = [(i, j, 1.0) for i in range(4) for j in range(i + 1, 4)]
        rows += [(i, j, 1.0) for i in range(5, 9) for j in range(i + 1, 9)]
        edges = pd.DataFrame(rows, columns=["u", "v", "w"])
        g = gen.GenGraph(name="cliques", n=10, edges=edges)
        labels = connected_components(to_spark(spark, g, partitions=2))
        assert len(set(labels[:4])) == 1
        assert len(set(labels[5:9])) == 1
        assert labels[4] not in (labels[0], labels[5])
        assert labels[9] not in (labels[0], labels[5])

    def test_path_graph_converges(self, spark):
        n = 40
        edges = pd.DataFrame(
            {"u": np.arange(n - 1), "v": np.arange(1, n), "w": 1.0}
        )
        g = gen.GenGraph(name="path", n=n, edges=edges)
        labels = connected_components(to_spark(spark, g, partitions=2))
        assert (labels == 0).all()

    def test_matches_union_find_on_random_graph(self, spark):
        g = gen.planted_partition(400, avg_deg=3, mixing=0.4, seed=3)
        labels = connected_components(to_spark(spark, g, partitions=4))
        # The union-find roots are each component's min vertex id, as the labels are.
        np.testing.assert_array_equal(labels, _union_find(g.n, g.edges))

    def test_isolated_vertices_are_singletons(self, spark):
        edges = pd.DataFrame({"u": [0], "v": [1], "w": [1.0]})
        g = gen.GenGraph(name="iso", n=5, edges=edges)
        labels = connected_components(to_spark(spark, g, partitions=2))
        assert labels[0] == labels[1]
        assert len({labels[2], labels[3], labels[4]}) == 3

    @pytest.mark.parametrize("n", [0, 5])
    def test_edgeless(self, spark, n):
        g = gen.GenGraph(name="edgeless", n=n, edges=pd.DataFrame({"u": [], "v": [], "w": []}))
        labels = connected_components(to_spark(spark, g, partitions=2))
        assert labels.dtype == np.int64
        np.testing.assert_array_equal(labels, np.arange(n))

    def test_leaves_no_persisted_rdd(self, spark):
        g = gen.planted_partition(400, avg_deg=3, mixing=0.4, seed=3)
        gd = to_spark(spark, g, partitions=4)
        before = _persisted_ids(spark)
        connected_components(gd)
        assert _persisted_ids(spark) - before == set()


class TestConnectedComponentsSparkLevel(TestConnectedComponents):
    """Every case above with the pruned graph's level held in Spark, as a
    persisted block RDD (``DRIVER_ROWS = 0``)."""

    @pytest.fixture(autouse=True)
    def _level_in_spark(self, monkeypatch):
        monkeypatch.setattr(state, "DRIVER_ROWS", 0)

    def test_leaves_no_persisted_rdd_after_failure(self, spark, monkeypatch):
        """A block step that raises in the second round still releases the
        level's blocks."""
        real = LevelGraph.map_blocks
        calls = []

        def boom(b, shared):
            raise RuntimeError("injected block failure")

        def failing(level, fn, shared):
            assert not level.driver
            calls.append(fn)
            return real(level, boom if len(calls) == 2 else fn, shared)

        monkeypatch.setattr(LevelGraph, "map_blocks", failing)
        g = gen.planted_partition(400, avg_deg=3, mixing=0.4, seed=3)
        gd = to_spark(spark, g, partitions=4)
        before = _persisted_ids(spark)
        with pytest.raises(Exception, match="injected block failure"):
            connected_components(gd)
        assert calls == [tectonic._min_nbr_label] * 2
        assert _persisted_ids(spark) - before == set()
