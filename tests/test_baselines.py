"""Tests for Tectonic, SCD, the NetworKit stand-in, and dense LambdaCC."""
import hashlib

import numpy as np
import pandas as pd
import pytest

from repro.baselines.lambdacc_dense import lambdacc_dense
from repro.baselines.networkit_like import networkit_like
from repro.baselines.scd import scd
from repro.baselines.tectonic import cluster_from_weights, tectonic, tectonic_weights
from repro.core.config import CCConfig
from repro.core.par_louvain import parallel_cc
from repro.core.seq_louvain import sequential_cc
from repro.eval.quality import avg_precision_recall
from repro.graphs.gen import GenGraph, karate, planted_partition
from repro.graphs.ops import to_spark

from tests.helpers import numpy_reported_objective


@pytest.fixture(scope="module")
def comm_graph():
    return planted_partition(500, avg_deg=10, mixing=0.25, seed=30)


@pytest.fixture(scope="module")
def comm_gd(spark, comm_graph):
    gd = to_spark(spark, comm_graph, partitions=4)
    gd.edges.cache().count()
    yield gd
    gd.edges.unpersist()


class TestTectonic:
    def test_weights_in_unit_range(self, comm_gd):
        pdf = tectonic_weights(comm_gd).toPandas()
        assert (pdf["score"] >= 0).all()
        assert (pdf["score"] <= 1.0 + 1e-9).all()
        assert len(pdf) == comm_gd.m_directed // 2

    def test_theta_zero_keeps_components(self, spark, comm_graph, comm_gd):
        labels = tectonic(comm_gd, theta=0.0)
        assert len(labels) == comm_graph.n

    def test_theta_sweep_monotone_cluster_count(self, comm_gd):
        w = tectonic_weights(comm_gd).cache()
        try:
            n_lo = len(np.unique(cluster_from_weights(comm_gd, w, 0.05)))
            n_hi = len(np.unique(cluster_from_weights(comm_gd, w, 0.6)))
        finally:
            w.unpersist()
        assert n_hi >= n_lo  # higher θ prunes more edges → more components

    def test_recovers_planted_communities_at_moderate_theta(
        self, comm_graph, comm_gd
    ):
        labels = tectonic(comm_gd, theta=0.1)
        prec, rec = avg_precision_recall(comm_graph.gt_communities(), labels)
        assert prec > 0.5 and rec > 0.5


class TestSCD:
    def test_output_shape(self, spark, comm_graph):
        labels = scd(spark, comm_graph, partitions=4)
        assert len(labels) == comm_graph.n
        assert labels.min() >= 0

    def test_finds_community_structure(self, spark, comm_graph):
        labels = scd(spark, comm_graph, partitions=4)
        prec, rec = avg_precision_recall(comm_graph.gt_communities(), labels)
        assert prec > 0.4 and rec > 0.4

    def test_clique_plus_isolated(self, spark):
        rows = [(i, j, 1.0) for i in range(5) for j in range(i + 1, 5)]
        g = GenGraph(name="cliq", n=7, edges=pd.DataFrame(rows, columns=["u", "v", "w"]))
        labels = scd(spark, g, partitions=2)
        assert len(set(labels[:5])) == 1
        assert labels[5] != labels[0] and labels[6] != labels[0]


def _labels_hash(labels: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(labels, dtype="<i8").tobytes()).hexdigest()[:16]


class TestPinnedOutputs:
    """Labels on ``comm_graph``, taken from before their triangle counts and
    connected components stopped leaving persisted RDDs behind."""

    def test_tectonic(self, comm_gd):
        assert _labels_hash(tectonic(comm_gd, theta=0.1)) == "2954b7bf6238b83e"

    def test_scd(self, spark, comm_graph):
        assert _labels_hash(scd(spark, comm_graph, partitions=4)) == "2c2632d549c1dbf1"


class TestNetworKitLike:
    def test_same_clustering_as_par_mod(self, spark, comm_graph, comm_gd):
        """The stand-in differs only in *how* compression is executed, so
        with the same seed the clustering and modularity are identical."""
        assign_nk, stats_nk = networkit_like(comm_gd, gamma=1.0, seed=3, partitions=4)
        cfg = CCConfig(
            resolution=1.0, objective="modularity", num_iter=32, seed=3, partitions=4
        )
        assign_pm, stats_pm = parallel_cc(comm_gd, cfg)
        np.testing.assert_array_equal(assign_nk, assign_pm)
        assert stats_nk.reported_objective == pytest.approx(
            stats_pm.reported_objective, rel=1e-9
        )

    def test_compression_time_tracked(self, comm_gd):
        _, stats = networkit_like(comm_gd, gamma=1.0, seed=4, partitions=4)
        assert stats.algo == "networkit-like"
        if len(stats.levels) > 1:
            assert stats.levels[0].time_compress > 0


class TestLambdaCCDense:
    def test_matches_sparse_quality_on_karate(self):
        g = karate()
        lam = 0.05
        labels = lambdacc_dense(g, lam, seed=1)
        _, stats = sequential_cc(g, CCConfig(resolution=lam, to_convergence=True, seed=1))
        dense_obj = numpy_reported_objective(g, labels, lam)
        assert dense_obj >= 0.8 * stats.objective

    def test_two_cliques(self):
        rows = [(i, j, 1.0) for i in range(4) for j in range(i + 1, 4)]
        rows += [(i, j, 1.0) for i in range(4, 8) for j in range(i + 1, 8)]
        g = GenGraph(name="cl", n=8, edges=pd.DataFrame(rows, columns=["u", "v", "w"]))
        labels = lambdacc_dense(g, 0.4, seed=0)
        assert len(set(labels[:4])) == 1 and len(set(labels[4:])) == 1
        assert labels[0] != labels[7]

    def test_refuses_large_graphs(self):
        g = planted_partition(7000, avg_deg=2, mixing=0.3, seed=1)
        with pytest.raises(MemoryError):
            lambdacc_dense(g, 0.1)
