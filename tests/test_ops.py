"""Tests for the Spark graph substrate (graphs.ops) with the DuckDB oracle."""
from contextlib import nullcontext

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.graphs import gen
from repro.graphs.ops import (
    GraphData,
    degree_array,
    degrees,
    partition_of,
    to_spark,
    validate,
)
from repro.oracle import assert_equivalent

from tests.helpers import graph_from_rows, repartition_reference

_THRESHOLD = "spark.sql.execution.arrow.localRelationThreshold"


@pytest.fixture(scope="module")
def small_graph():
    return gen.planted_partition(300, avg_deg=6, mixing=0.3, seed=1)


@pytest.fixture(scope="module")
def small_gd(spark, small_graph):
    gd = to_spark(spark, small_graph, partitions=4)
    gd.edges.cache().count()
    yield gd
    gd.edges.unpersist()


class TestToSpark:
    def test_row_count_doubles(self, small_gd, small_graph):
        assert small_gd.m_directed == 2 * small_graph.m

    def test_row_count_known_without_job(self, spark, small_graph):
        """``to_spark``'s graph carries its directed row count; a graph built
        elsewhere counts its rows."""
        sc = spark.sparkContext
        built = to_spark(spark, small_graph, partitions=4)
        other = GraphData(repartition_reference(spark, small_graph, 4), small_graph.n)
        jobs = []
        for i, gd in enumerate((built, other)):
            group = f"m-directed-{i}"
            sc.setJobGroup(group, "m_directed")
            try:
                assert gd.m_directed == 2 * small_graph.m
            finally:
                sc.setLocalProperty("spark.jobGroup.id", None)
            sc._jsc.sc().listenerBus().waitUntilEmpty()
            jobs.append(len(sc.statusTracker().getJobIdsForGroup(group)))
        assert built.rows == 2 * small_graph.m and other.rows is None
        assert jobs[0] == 0 and jobs[1] >= 1

    def test_invariants(self, small_gd):
        validate(small_gd)

    def test_partitioned_by_src(self, small_gd):
        # All rows of one src must land in the same partition (the move
        # pass depends on this co-location).
        def part_srcs(it):
            import pandas as pd  # noqa: F401

            for pdf in it:
                yield pdf[["src"]].drop_duplicates()

        pdf = small_gd.edges.mapInPandas(
            part_srcs, schema="src long"
        ).withColumn("pid", F.spark_partition_id()).toPandas()
        per_src = pdf.groupby("src")["pid"].nunique()
        assert (per_src == 1).all()


def _with_partition(df) -> pd.DataFrame:
    """Rows with their Spark partition ``p``, sorted by ``(p, src, dst, w)``."""
    pdf = df.withColumn("p", F.spark_partition_id()).toPandas()
    return pdf.sort_values(["p", "src", "dst", "w"], ignore_index=True)


class TestToSparkLayout:
    """``to_spark`` hands Spark one Arrow batch per partition: the layout
    ``repartition(P, "src")`` would give, without a shuffle or a local relation."""

    @pytest.mark.parametrize("partitions", [1, 3, 4, 8])
    def test_partition_rows_match_repartition(self, spark, small_graph, partitions):
        got = _with_partition(to_spark(spark, small_graph, partitions=partitions).edges)
        np.testing.assert_array_equal(
            partition_of(got["src"].to_numpy(), partitions), got["p"].to_numpy()
        )
        exp = _with_partition(repartition_reference(spark, small_graph, partitions))
        pd.testing.assert_frame_equal(got, exp)

    @pytest.mark.parametrize("extra", [-3, 0, 5])
    def test_partition_count_is_p(self, spark, small_graph, extra):
        partitions = max(1, spark.sparkContext.defaultParallelism + extra)
        gd = to_spark(spark, small_graph, partitions=partitions)
        assert gd.edges.rdd.getNumPartitions() == partitions

    @pytest.mark.parametrize(
        "graph",
        [
            graph_from_rows(5, []),
            graph_from_rows(1, []),
            graph_from_rows(9, [(0, 1, 1.0), (1, 2, 2.0), (4, 7, 0.5)]),
        ],
        ids=["edgeless", "n=1", "isolated-vertices"],
    )
    def test_degenerate_graphs(self, spark, graph):
        gd = to_spark(spark, graph, partitions=4)
        assert gd.edges.rdd.getNumPartitions() == 4
        assert gd.m_directed == 2 * graph.m
        sizes = gd.edges.rdd.glom().map(len).collect()
        assert len(sizes) == 4 and sum(sizes) == 2 * graph.m

    def test_plan_reads_the_batches_only(self, spark, small_graph):
        plan = to_spark(spark, small_graph, partitions=4).edges._jdf.queryExecution()
        text = plan.executedPlan().toString()
        for node in ("LocalTableScan", "Exchange", "Python", "Pandas"):
            assert node not in text, text

    @pytest.mark.parametrize("fail", [False, True], ids=["ok", "serialization-raises"])
    @pytest.mark.parametrize("old", [None, "10MB"], ids=["unset", "set"])
    def test_threshold_restored(self, spark, small_graph, monkeypatch, old, fail):
        real = spark.sparkContext._serialize_to_jvm
        seen = []

        def serialize(*args, **kwargs):
            seen.append(spark.conf.get(_THRESHOLD))
            if fail:
                raise RuntimeError("injected serialization failure")
            return real(*args, **kwargs)

        monkeypatch.setattr(spark.sparkContext, "_serialize_to_jvm", serialize)
        if old is None:
            spark.conf.unset(_THRESHOLD)
        else:
            spark.conf.set(_THRESHOLD, old)
        try:
            with pytest.raises(RuntimeError, match="injected") if fail else nullcontext():
                to_spark(spark, small_graph, partitions=2)
            assert seen == ["0"]
            assert spark.conf.get(_THRESHOLD, None) == old
        finally:
            spark.conf.unset(_THRESHOLD)


class TestDegrees:
    def test_oracle(self, spark, small_gd, small_graph):
        got = degrees(small_gd)
        sym = pd.concat(
            [
                small_graph.edges.rename(columns={"u": "src", "v": "dst"}),
                small_graph.edges.rename(columns={"v": "src", "u": "dst"}),
            ]
        )[["src", "dst", "w"]]
        assert_equivalent(
            got,
            "SELECT src AS v, SUM(w) AS deg FROM sym GROUP BY src",
            sym=sym,
        )

    def test_degree_array_matches_numpy(self, small_gd, small_graph):
        arr = degree_array(small_gd)
        exp = np.zeros(small_graph.n)
        np.add.at(exp, small_graph.edges["u"].to_numpy(), small_graph.edges["w"].to_numpy())
        np.add.at(exp, small_graph.edges["v"].to_numpy(), small_graph.edges["w"].to_numpy())
        np.testing.assert_allclose(arr, exp)

    def test_handshake(self, small_gd, small_graph):
        # Sum of unweighted degrees == 2m.
        assert degree_array(small_gd).sum() == pytest.approx(2 * small_graph.m)
