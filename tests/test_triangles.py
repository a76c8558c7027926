"""Tests for triangle counting (graphs.triangles) against a DuckDB oracle."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.graphs import gen
from repro.graphs.ops import to_spark
from repro.graphs.triangles import (
    edge_triangle_counts,
    triangle_list,
    vertex_triangle_counts,
)
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def tri_graph(spark):
    g = gen.planted_partition(250, avg_deg=8, mixing=0.3, seed=7)
    gd = to_spark(spark, g, partitions=4)
    gd.edges.cache().count()
    yield g, gd
    gd.edges.unpersist()


def _persisted_ids(spark) -> set:
    return set(spark.sparkContext._jsc.getPersistentRDDs().keySet())


_TRI_SQL = """
SELECT COUNT(*) AS t FROM e e1
JOIN e e2 ON e1.v = e2.u
JOIN e e3 ON e1.u = e3.u AND e2.v = e3.v
"""


class TestTriangleList:
    def test_total_count_oracle(self, spark, tri_graph):
        g, gd = tri_graph
        got = triangle_list(gd).agg(F.count("*").alias("t"))
        assert_equivalent(got, _TRI_SQL, e=g.edges)

    def test_triangle_rows_are_sorted_and_distinct(self, tri_graph):
        _, gd = tri_graph
        pdf = triangle_list(gd).toPandas()
        assert (pdf["x"] < pdf["y"]).all() and (pdf["y"] < pdf["z"]).all()
        assert not pdf.duplicated().any()

    def test_single_triangle(self, spark):
        edges = pd.DataFrame({"u": [0, 0, 1], "v": [1, 2, 2], "w": 1.0})
        g = gen.GenGraph(name="tri", n=3, edges=edges)
        pdf = triangle_list(to_spark(spark, g, partitions=2)).toPandas()
        assert len(pdf) == 1 and tuple(pdf.iloc[0]) == (0, 1, 2)

    def test_square_has_no_triangle(self, spark):
        edges = pd.DataFrame({"u": [0, 1, 2, 0], "v": [1, 2, 3, 3], "w": 1.0})
        g = gen.GenGraph(name="sq", n=4, edges=edges)
        assert triangle_list(to_spark(spark, g, partitions=2)).count() == 0


class TestEdgeCounts:
    def test_sum_is_three_per_triangle(self, tri_graph):
        _, gd = tri_graph
        n_tri = triangle_list(gd).count()
        total = edge_triangle_counts(gd).agg(F.sum("tri")).first()[0] or 0
        assert total == 3 * n_tri

    def test_k4_every_edge_in_two(self, spark):
        rows = [(i, j, 1.0) for i in range(4) for j in range(i + 1, 4)]
        g = gen.GenGraph(name="k4", n=4, edges=pd.DataFrame(rows, columns=["u", "v", "w"]))
        pdf = edge_triangle_counts(to_spark(spark, g, partitions=2)).toPandas()
        assert len(pdf) == 6 and (pdf["tri"] == 2).all()


class TestVertexCounts:
    def test_sum_is_three_per_triangle(self, tri_graph):
        _, gd = tri_graph
        n_tri = triangle_list(gd).count()
        total = vertex_triangle_counts(gd).agg(F.sum("tri")).first()[0] or 0
        assert total == 3 * n_tri

    def test_wheel_center(self, spark):
        # Star + outer cycle: center participates in every outer edge's triangle.
        k = 6
        rows = [(0, i, 1.0) for i in range(1, k + 1)]
        rows += [(i, i % k + 1, 1.0) for i in range(1, k + 1)]
        edges = pd.DataFrame(rows, columns=["u", "v", "w"])
        edges = pd.DataFrame(
            {"u": edges[["u", "v"]].min(axis=1), "v": edges[["u", "v"]].max(axis=1), "w": 1.0}
        ).drop_duplicates()
        g = gen.GenGraph(name="wheel", n=k + 1, edges=edges)
        pdf = vertex_triangle_counts(to_spark(spark, g, partitions=2)).toPandas()
        center = pdf.set_index("v").loc[0, "tri"]
        assert center == k


@pytest.mark.parametrize(
    "counts, seed", [(edge_triangle_counts, 11), (vertex_triangle_counts, 12)]
)
def test_counting_leaves_no_persisted_rdd(spark, counts, seed):
    # A graph of its own: Spark caches a plan once, so a plan an earlier
    # test already cached would not show a new persisted RDD.
    gd = to_spark(spark, gen.planted_partition(120, avg_deg=6, mixing=0.3, seed=seed), partitions=4)
    before = _persisted_ids(spark)
    assert counts(gd).collect()
    assert _persisted_ids(spark) - before == set()
