"""Tests for PARALLEL-CC / PAR-MOD (core.par_louvain): correctness of the
dataflow vertex program, all three §3.2 optimization axes, and agreement
with the sequential engine."""
import hashlib
import types

import networkx as nx
import numpy as np
import pandas as pd
import pytest

from repro.core import par_louvain, seq_louvain, state
from repro.core.config import CCConfig
from repro.core.par_louvain import best_moves, parallel_cc
from repro.core.seq_louvain import sequential_cc
from repro.core.state import cc_objective, level0
from repro.graphs.gen import GenGraph, karate, lite_graph, planted_partition
from repro.graphs.ops import GraphData, to_spark

from tests.helpers import (
    brute_cc,
    numpy_reported_objective,
    repartition_reference,
    small_weighted_graph,
)


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
        before = numpy_reported_objective(g, np.arange(g.n), lam)
        assign, _, _ = best_moves(lvl, np.arange(g.n), lam, cfg, seed_base=3)
        after = numpy_reported_objective(g, assign, lam)
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
        assert stats.objective == pytest.approx(
            numpy_reported_objective(medium_graph, assign, 0.3), rel=1e-9
        )
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


class TestTotalTime:
    def test_both_engines_time_level0_and_objective(self, spark, monkeypatch):
        """PAR and SEQ time the same span, from the level-0 build to the final
        objective: on a clock that only those steps advance, each engine's
        total is everything they added."""
        clock = [0.0]

        def ticking(fn):
            def run(*args, **kwargs):
                clock[0] += 1.0
                return fn(*args, **kwargs)

            return run

        for module, name in (
            (par_louvain, "level0"),
            (par_louvain, "cc_objective"),
            (seq_louvain, "build_csr"),
        ):
            monkeypatch.setattr(module, name, ticking(getattr(module, name)))
        monkeypatch.setattr(par_louvain, "time", types.SimpleNamespace(perf_counter=lambda: clock[0]))
        g = planted_partition(200, avg_deg=6, mixing=0.3, seed=3)
        cfg = CCConfig(resolution=0.3, num_iter=3, seed=4, partitions=2)
        gd = to_spark(spark, g, partitions=2)
        for run in (lambda: parallel_cc(gd, cfg), lambda: sequential_cc(g, cfg)):
            clock[0] = 0.0
            _, stats = run()
            assert clock[0] >= 2.0
            assert stats.total_time == clock[0]


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


_PIN_CC = CCConfig(resolution=0.3, num_iter=5, seed=5)
_PIN_MOD = CCConfig(
    resolution=1.0, objective="modularity", async_moves=False, frontier="all", num_iter=5, seed=5
)


# (cfg, compress_mode, expected hash, expected reported objective), input at P=4
_PINNED = [
    (CCConfig(resolution=0.3, num_iter=5, seed=5, partitions=4),
     "spark", "f5ef2a594e95ed55", 665.0),
    (CCConfig(resolution=0.3, num_iter=5, seed=5, partitions=4, frontier="clusters"),
     "spark", "e786c52616a27a48", 669.4),
    (CCConfig(resolution=1.0, objective="modularity", async_moves=False,
              frontier="all", num_iter=5, seed=5, partitions=4),
     "spark", "0b1cf78f62c5c844", 0.2769110931138634),
    (CCConfig(resolution=0.3, num_iter=5, seed=5, partitions=4),
     "driver_python", "f5ef2a594e95ed55", 665.0),
    (CCConfig(resolution=1.0, objective="modularity", async_moves=False,
              frontier="all", num_iter=5, seed=5, partitions=4, refine=False),
     "spark", "5b2960aa5bbe3761", 0.13499545889014128),
    (CCConfig(resolution=0.3, num_iter=5, seed=5, partitions=4, refine=False),
     "spark", "e97d4f377c7414f8", 501.80000000000007),
]
_PINNED_IDS = [
    "cc-async-vertices-refine", "cc-async-clusters", "mod-sync-all", "cc-driver-python",
    "mod-sync-all-norefine", "cc-async-norefine",
]

# (input partitions, cfg, compress_mode, expected hash, expected reported objective)
_PACKED = [
    (8, _PIN_CC.with_(partitions=8), "spark", "1b13116808a38c3d", 649.8000000000001),
    (8, _PIN_MOD.with_(partitions=8), "spark", "0b1cf78f62c5c844", 0.2769110931138634),
    (8, _PIN_CC.with_(partitions=8), "driver_python", "1b13116808a38c3d", 649.8000000000001),
    (16, _PIN_CC.with_(partitions=16), "spark", "42986674efae1158", 609.0),
    (16, _PIN_MOD.with_(partitions=16), "spark", "0b1cf78f62c5c844", 0.2769110931138634),
    (16, _PIN_CC.with_(partitions=16), "driver_python", "42986674efae1158", 609.0),
    # Another input partition count: rows are routed, then regrouped.
    (4, _PIN_CC.with_(partitions=6), "spark", "c45b8d091633fc49", 650.2),
]
_PACKED_IDS = [
    "P8-cc-async-vertices-refine", "P8-mod-sync-all", "P8-cc-driver-python",
    "P16-cc-async-vertices-refine", "P16-mod-sync-all", "P16-cc-driver-python",
    "input4-P6-cc-async-vertices-refine",
]


class TestPinnedOutputs:
    """Fixed-seed outputs, pinned so that engine refactors show they change nothing.

    Unit edge weights make every edge-weight sum exact, so the values do not
    depend on the order in which a partition's rows are summed. Each case
    runs twice against the same values: with the default ``DRIVER_ROWS``,
    where every level of this graph is held in the driver, and with
    ``DRIVER_ROWS = 0``, where every level stays in Spark.
    """

    def _check(self, spark, graph, monkeypatch, input_partitions, case, spark_levels):
        cfg, compress_mode, expected_hash, expected_objective = case
        if spark_levels:
            monkeypatch.setattr(state, "DRIVER_ROWS", 0)
        gd = to_spark(spark, graph, partitions=input_partitions)
        assign, stats = parallel_cc(gd, cfg, compress_mode=compress_mode)
        # Level 0 is below DRIVER_ROWS here, so every level is held in the
        # driver unless every level is in Spark.
        assert len(stats.levels) > 1
        assert all(l.driver != spark_levels for l in stats.levels)
        assert _assign_hash(assign) == expected_hash
        assert stats.reported_objective == expected_objective
        return stats

    @pytest.mark.parametrize("case", _PINNED, ids=_PINNED_IDS)
    def test_assignment_and_objective(self, spark, medium_graph, monkeypatch, case):
        self._check(spark, medium_graph, monkeypatch, 4, case, spark_levels=False)

    @pytest.mark.parametrize("case", _PINNED, ids=_PINNED_IDS)
    def test_assignment_and_objective_spark_levels(self, spark, medium_graph, monkeypatch, case):
        self._check(spark, medium_graph, monkeypatch, 4, case, spark_levels=True)

    def _check_packed(self, spark, graph, monkeypatch, case, spark_levels):
        input_partitions, cfg = case[:2]
        if spark.sparkContext.defaultParallelism >= cfg.partitions:
            pytest.skip("defaultParallelism >= P: every block gets its own task")
        stats = self._check(spark, graph, monkeypatch, input_partitions, case[1:], spark_levels)
        assert stats.tasks < cfg.partitions

    @pytest.mark.parametrize("case", _PACKED, ids=_PACKED_IDS)
    def test_packed_blocks(self, spark, medium_graph, monkeypatch, case):
        """P logical blocks packed into fewer Spark tasks give the same outputs."""
        self._check_packed(spark, medium_graph, monkeypatch, case, spark_levels=False)

    @pytest.mark.parametrize("case", _PACKED, ids=_PACKED_IDS)
    def test_packed_blocks_spark_levels(self, spark, medium_graph, monkeypatch, case):
        self._check_packed(spark, medium_graph, monkeypatch, case, spark_levels=True)


class TestIngestEquivalence:
    """``to_spark``'s Arrow-batch input and a ``repartition(P, "src")`` input
    give the engine the same blocks, so the same outputs."""

    @pytest.mark.parametrize("async_moves", [False, True], ids=["sync", "async"])
    @pytest.mark.parametrize("objective", ["cc", "modularity"])
    def test_same_outputs(self, spark, medium_graph, objective, async_moves):
        cfg = CCConfig(
            resolution=0.3 if objective == "cc" else 1.0, objective=objective,
            async_moves=async_moves, num_iter=5, seed=5, partitions=4,
        )
        a_new, s_new = parallel_cc(to_spark(spark, medium_graph, partitions=4), cfg)
        a_ref, s_ref = parallel_cc(
            GraphData(repartition_reference(spark, medium_graph, 4), medium_graph.n), cfg
        )
        assert _assign_hash(a_new) == _assign_hash(a_ref)
        assert s_new.objective == s_ref.objective
        assert s_new.reported_objective == s_ref.reported_objective


class TestNetworkxModularity:
    """PAR-MOD's Q against networkx, an independent implementation.

    networkx counts the i = j terms of the modularity sum; the engine's
    ordered-pair objective does not, so Q = Q_nx + γ·Σd²/(2W)².
    """

    @pytest.mark.parametrize("partitions", [2, 8], ids=["P-le-tasks", "P-gt-tasks"])
    @pytest.mark.parametrize(
        "graph, gamma", [(karate, 1.0), (lambda: lite_graph("amazon-lite"), 0.8)],
        ids=["karate", "amazon-lite"],
    )
    def test_q_matches_networkx(self, spark, monkeypatch, graph, gamma, partitions):
        if partitions > 2 and spark.sparkContext.defaultParallelism >= partitions:
            pytest.skip("defaultParallelism >= P: every block gets its own task")
        # Every level in Spark, so that level 0's P blocks run in Spark tasks.
        monkeypatch.setattr(state, "DRIVER_ROWS", 0)
        g = graph()
        cfg = CCConfig(
            resolution=gamma, objective="modularity", num_iter=3, max_levels=3, seed=9,
            partitions=partitions,
        )
        assign, stats = parallel_cc(to_spark(spark, g, partitions=partitions), cfg)
        assert stats.tasks == min(partitions, spark.sparkContext.defaultParallelism)
        G = nx.Graph()
        G.add_nodes_from(range(g.n))
        G.add_weighted_edges_from(g.edges[["u", "v", "w"]].itertuples(index=False), weight="w")
        communities = [np.flatnonzero(assign == c).tolist() for c in range(stats.n_clusters)]
        deg = np.array([d for _, d in sorted(G.degree(weight="w"))])
        q_nx = nx.community.modularity(G, communities, weight="w", resolution=gamma)
        assert stats.reported_objective == pytest.approx(
            q_nx + gamma * (deg**2).sum() / deg.sum() ** 2, rel=0, abs=1e-9
        )
