"""Tests for PARALLEL-CC / PAR-MOD (core.par_louvain): correctness of the
dataflow vertex program, all three §3.2 optimization axes, and agreement
with the sequential engine."""
import hashlib

import numpy as np
import pandas as pd
import pytest

from repro.core.config import CCConfig
from repro.core.par_louvain import best_moves, parallel_cc
from repro.core.seq_louvain import build_csr, csr_objective, sequential_cc
from repro.core.state import cc_objective, level0
from repro.graphs.gen import GenGraph, karate, planted_partition
from repro.graphs.ops import to_spark

from tests.helpers import brute_cc, small_weighted_graph


def _two_cliques() -> GenGraph:
    rows = [(i, j, 1.0) for i in range(4) for j in range(i + 1, 4)]
    rows += [(i, j, 1.0) for i in range(4, 8) for j in range(i + 1, 8)]
    rows.append((3, 4, 0.5))
    return GenGraph(name="cliques", n=8, edges=pd.DataFrame(rows, columns=["u", "v", "w"]))


@pytest.fixture(scope="module")
def medium_graph():
    return planted_partition(600, avg_deg=8, mixing=0.3, seed=20)


class TestBestMoves:
    @pytest.mark.parametrize("async_moves", [False, True])
    def test_two_cliques(self, spark, async_moves):
        g = _two_cliques()
        gd = to_spark(spark, g, partitions=2)
        lvl = level0(gd, np.ones(g.n), partitions=2)
        cfg = CCConfig(resolution=0.4, num_iter=10, async_moves=async_moves, seed=1)
        assign, moves, _ = best_moves(lvl, np.arange(g.n), 0.4, cfg, seed_base=1)
        assert moves > 0
        assert len(set(assign[:4])) == 1 and len(set(assign[4:])) == 1
        assert assign[0] != assign[7]
        lvl.unpersist()

    @pytest.mark.parametrize("async_moves", [False, True])
    @pytest.mark.parametrize("lam", [0.1, 0.7])
    def test_moves_improve_objective(self, spark, async_moves, lam):
        g = planted_partition(200, avg_deg=8, mixing=0.3, seed=21)
        gd = to_spark(spark, g, partitions=4)
        lvl = level0(gd, np.ones(g.n), partitions=4)
        cfg = CCConfig(resolution=lam, num_iter=10, async_moves=async_moves, seed=2)
        assign, moves, _ = best_moves(lvl, np.arange(g.n), lam, cfg, seed_base=2)
        obj = cc_objective(lvl, assign, lam)
        if async_moves:
            # §4.1: "in the asynchronous setting, the objective is always
            # positive" (singletons score exactly 0).
            assert obj > 0.0
        else:
            # The paper reports sync often lands on poor, even negative,
            # objective — only require a finite, non-pathological result.
            assert np.isfinite(obj)
        lvl.unpersist()

    def test_async_single_partition_matches_delta_semantics(self, spark):
        """With one partition, async == fully sequential immediate moves, so
        every emitted move's delta must equal the true objective change."""
        g = small_weighted_graph(22, n=18, avg_deg=4)
        gd = to_spark(spark, g, partitions=1)
        lvl = level0(gd, np.ones(g.n), partitions=1)
        lam = 0.3
        cfg = CCConfig(resolution=lam, num_iter=1, async_moves=True, seed=3)
        csr = build_csr(g.edges, g.n, np.ones(g.n))
        before = csr_objective(csr, np.arange(g.n), lam)
        assign, _, _ = best_moves(lvl, np.arange(g.n), lam, cfg, seed_base=3)
        after = csr_objective(csr, assign, lam)
        # One sequential iteration strictly improves (or leaves) the objective.
        assert after >= before - 1e-9
        lvl.unpersist()

    def test_frontier_all_equivalent_to_vertices_on_converged(self, spark):
        g = _two_cliques()
        gd = to_spark(spark, g, partitions=2)
        lvl = level0(gd, np.ones(g.n), partitions=2)
        out = {}
        for frontier in ("all", "vertices", "clusters"):
            cfg = CCConfig(resolution=0.4, num_iter=20, frontier=frontier, seed=4)
            assign, _, _ = best_moves(lvl, np.arange(g.n), 0.4, cfg, seed_base=4)
            out[frontier] = cc_objective(lvl, assign, 0.4)
        assert out["all"] == pytest.approx(out["vertices"], rel=1e-6)
        assert out["all"] == pytest.approx(out["clusters"], rel=1e-6)
        lvl.unpersist()


class TestParallelCC:
    @pytest.mark.parametrize("async_moves", [False, True])
    def test_objective_positive_and_matches_recompute(self, spark, medium_graph, async_moves):
        cfg = CCConfig(resolution=0.3, num_iter=5, async_moves=async_moves, seed=5, partitions=4)
        assign, stats = parallel_cc(to_spark(spark, medium_graph, partitions=4), cfg)
        if async_moves:
            assert stats.objective > 0
        csr = build_csr(medium_graph.edges, medium_graph.n, np.ones(medium_graph.n))
        assert stats.objective == pytest.approx(csr_objective(csr, assign, 0.3), rel=1e-9)
        assert stats.n_clusters == len(np.unique(assign))

    def test_matches_sequential_quality(self, spark, medium_graph):
        """PAR-CC's objective should be within a few percent of SEQ-CC's
        (the paper reports 0.95–1.08x)."""
        cfg = CCConfig(resolution=0.25, num_iter=10, seed=6, partitions=4)
        _, s_par = parallel_cc(to_spark(spark, medium_graph, partitions=4), cfg)
        _, s_seq = sequential_cc(medium_graph, cfg.with_(to_convergence=True))
        assert s_par.objective >= 0.85 * s_seq.objective

    def test_recovers_planted_communities(self, spark):
        g = planted_partition(500, avg_deg=10, mixing=0.15, seed=23)
        cfg = CCConfig(resolution=0.1, num_iter=10, seed=7, partitions=4)
        assign, _ = parallel_cc(to_spark(spark, g, partitions=4), cfg)
        from repro.eval.quality import avg_precision_recall

        prec, rec = avg_precision_recall(g.gt_communities(), assign)
        assert prec > 0.8 and rec > 0.8

    def test_modularity_mode(self, spark):
        g = karate()
        cfg = CCConfig(
            resolution=1.0, objective="modularity", num_iter=10, seed=8, partitions=2
        )
        assign, stats = parallel_cc(to_spark(spark, g, partitions=2), cfg)
        assert 0.35 <= stats.reported_objective <= 0.48
        assert stats.n_clusters <= 8

    def test_resolution_controls_cluster_count(self, spark, medium_graph):
        gd = to_spark(spark, medium_graph, partitions=4)
        lo_cfg = CCConfig(resolution=0.01, num_iter=5, seed=9, partitions=4)
        hi_cfg = CCConfig(resolution=0.9, num_iter=5, seed=9, partitions=4)
        _, s_lo = parallel_cc(gd, lo_cfg)
        _, s_hi = parallel_cc(gd, hi_cfg)
        assert s_hi.n_clusters > s_lo.n_clusters

    def test_refinement_tracked_and_does_not_hurt(self, spark, medium_graph):
        gd = to_spark(spark, medium_graph, partitions=4)
        cfg = CCConfig(resolution=0.6, num_iter=3, seed=10, partitions=4)
        _, s_ref = parallel_cc(gd, cfg)
        _, s_noref = parallel_cc(gd, cfg.with_(refine=False))
        if len(s_ref.levels) > 1:
            assert any(l.refine_iters > 0 for l in s_ref.levels)
        assert all(l.refine_iters == 0 for l in s_noref.levels)
        assert s_ref.objective >= s_noref.objective - 1e-6

    def test_memory_stats_monotone(self, spark, medium_graph):
        gd = to_spark(spark, medium_graph, partitions=4)
        cfg = CCConfig(resolution=0.3, num_iter=5, seed=11, partitions=4)
        _, stats = parallel_cc(gd, cfg)
        assert stats.retained_edges_refine >= stats.retained_edges_norefine
        assert stats.levels[0].m_directed == 2 * medium_graph.m

    def test_driver_python_compress_same_result_shape(self, spark):
        g = planted_partition(300, avg_deg=6, mixing=0.3, seed=24)
        gd = to_spark(spark, g, partitions=4)
        cfg = CCConfig(resolution=0.3, num_iter=5, seed=12, partitions=4)
        a1, s1 = parallel_cc(gd, cfg)
        a2, s2 = parallel_cc(gd, cfg, compress_mode="driver_python")
        # Same engine, same seed: identical clustering either way.
        np.testing.assert_array_equal(a1, a2)
        assert s1.objective == pytest.approx(s2.objective, rel=1e-9)


class TestSyncVsAsync:
    def test_sync_lockstep_pathology_possible_async_breaks_it(self, spark):
        """Figure 1's scenario: a path a-b-c at λ=0. In sync mode b and c can
        pick each other's/old clusters in lockstep; async (sequential within
        a partition) settles into one cluster with positive objective."""
        edges = pd.DataFrame({"u": [0, 0], "v": [1, 2], "w": [1.0, 1.0]})
        g = GenGraph(name="star", n=3, edges=edges)
        gd = to_spark(spark, g, partitions=1)
        lvl = level0(gd, np.ones(3), partitions=1)
        cfg = CCConfig(resolution=0.0, num_iter=10, async_moves=True, seed=13)
        assign, _, _ = best_moves(lvl, np.arange(3), 0.0, cfg, seed_base=13)
        assert len(np.unique(assign)) == 1  # all three merge at λ=0
        lvl.unpersist()

    def test_async_objective_at_least_sync_on_average(self, spark):
        """§4.1's headline: async maintains or improves the objective."""
        g = planted_partition(500, avg_deg=12, mixing=0.4, seed=25)
        gd = to_spark(spark, g, partitions=4)
        deltas = []
        for seed in (0, 1):
            cfg = CCConfig(resolution=0.85, num_iter=5, seed=seed, partitions=4, refine=False)
            _, s_async = parallel_cc(gd, cfg.with_(async_moves=True))
            _, s_sync = parallel_cc(gd, cfg.with_(async_moves=False))
            deltas.append(s_async.objective - s_sync.objective)
        assert np.mean(deltas) > -1e-6


def _assign_hash(assign: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(assign, dtype="<i8").tobytes()).hexdigest()[:16]


class TestPinnedOutputs:
    """Fixed-seed outputs, pinned so that engine refactors show they change nothing.

    Unit edge weights make every edge-weight sum exact, so the values do not
    depend on the order in which a partition's rows are summed.
    """

    @pytest.mark.parametrize(
        "cfg, compress_mode, expected_hash, expected_objective",
        [
            (CCConfig(resolution=0.3, num_iter=5, seed=5, partitions=4),
             "spark", "f5ef2a594e95ed55", 665.0),
            (CCConfig(resolution=0.3, num_iter=5, seed=5, partitions=4, frontier="clusters"),
             "spark", "e786c52616a27a48", 669.4),
            (CCConfig(resolution=1.0, objective="modularity", async_moves=False,
                      frontier="all", num_iter=5, seed=5, partitions=4),
             "spark", "0b1cf78f62c5c844", 0.2769110931138634),
            (CCConfig(resolution=0.3, num_iter=5, seed=5, partitions=4),
             "driver_python", "f5ef2a594e95ed55", 665.0),
        ],
        ids=["cc-async-vertices-refine", "cc-async-clusters", "mod-sync-all", "cc-driver-python"],
    )
    def test_assignment_and_objective(
        self, spark, medium_graph, cfg, compress_mode, expected_hash, expected_objective
    ):
        gd = to_spark(spark, medium_graph, partitions=4)
        assign, stats = parallel_cc(gd, cfg, compress_mode=compress_mode)
        assert _assign_hash(assign) == expected_hash
        assert stats.reported_objective == expected_objective
