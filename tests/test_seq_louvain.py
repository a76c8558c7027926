"""Tests for SEQUENTIAL-CC / SEQ-MOD (core.seq_louvain)."""
import hashlib

import numpy as np
import pandas as pd
import pytest

from repro.core.config import CCConfig
from repro.core.seq_louvain import (
    CSRLevel,
    _sweeps,
    build_csr,
    csr_objective,
    sequential_cc,
)
from repro.core.state import densify
from repro.graphs.gen import GenGraph, karate, lite_graph, planted_partition

from tests.helpers import brute_cc, small_weighted_graph


def _two_cliques(bridge_w: float = 0.5) -> GenGraph:
    rows = [(i, j, 1.0) for i in range(4) for j in range(i + 1, 4)]
    rows += [(i, j, 1.0) for i in range(4, 8) for j in range(i + 1, 8)]
    rows.append((3, 4, bridge_w))
    return GenGraph(name="cliques", n=8, edges=pd.DataFrame(rows, columns=["u", "v", "w"]))


class TestSweeps:
    def test_two_cliques_found(self):
        g = _two_cliques()
        csr = build_csr(g.edges, g.n, np.ones(g.n))
        cfg = CCConfig(resolution=0.4, to_convergence=True, refine=False, seed=1)
        assign, moves, _ = _sweeps(csr, np.arange(g.n), 0.4, cfg, np.random.default_rng(1))
        assert moves > 0
        assert len(set(assign[:4])) == 1
        assert len(set(assign[4:])) == 1
        assert assign[0] != assign[7]

    def test_high_resolution_gives_more_clusters(self):
        g = planted_partition(400, avg_deg=8, mixing=0.3, seed=2)
        lo_cfg = CCConfig(resolution=0.01, to_convergence=True, refine=False, seed=3)
        hi_cfg = CCConfig(resolution=0.9, to_convergence=True, refine=False, seed=3)
        csr = build_csr(g.edges, g.n, np.ones(g.n))
        a_lo, _, _ = _sweeps(csr, np.arange(g.n), 0.01, lo_cfg, np.random.default_rng(3))
        a_hi, _, _ = _sweeps(csr, np.arange(g.n), 0.9, hi_cfg, np.random.default_rng(3))
        assert len(np.unique(a_hi)) > len(np.unique(a_lo))

    @pytest.mark.parametrize("lam", [0.05, 0.5, 0.85])
    def test_every_sweep_increases_objective(self, lam):
        """Sequential moves are individually improving, so the objective is
        monotone across sweeps (Algorithm 2's loop condition)."""
        g = small_weighted_graph(5, n=60, avg_deg=6)
        csr = build_csr(g.edges, g.n, np.ones(g.n))
        cfg = CCConfig(resolution=lam, num_iter=1, refine=False, seed=4)
        rng = np.random.default_rng(4)
        assign = np.arange(g.n)
        prev = csr_objective(csr, assign, lam)
        for _ in range(6):
            assign, moves, _ = _sweeps(csr, assign, lam, cfg, rng)
            cur = csr_objective(csr, assign, lam)
            assert cur >= prev - 1e-9
            prev = cur
            if moves == 0:
                break

    @pytest.mark.parametrize("lam", [0.1, 0.6])
    def test_local_optimality_at_convergence(self, lam):
        """At convergence no single-vertex move (incl. detaching) improves."""
        g = small_weighted_graph(6, n=24, avg_deg=5)
        csr = build_csr(g.edges, g.n, np.ones(g.n))
        cfg = CCConfig(resolution=lam, to_convergence=True, refine=False, seed=5)
        assign, _, _ = _sweeps(csr, np.arange(g.n), lam, cfg, np.random.default_rng(5))
        base_obj = brute_cc(g, assign, lam)
        labels = np.unique(assign)
        fresh = labels.max() + 1
        for v in range(g.n):
            for target in list(labels) + [fresh]:
                if target == assign[v]:
                    continue
                trial = assign.copy()
                trial[v] = target
                assert brute_cc(g, trial, lam) <= base_obj + 1e-7, (
                    f"vertex {v} -> {target} improves at convergence"
                )


class TestSequentialCC:
    def test_karate_modularity_reasonable(self):
        g = karate()
        cfg = CCConfig(resolution=1.0, objective="modularity", to_convergence=True, seed=0)
        assign, stats = sequential_cc(g, cfg)
        # The paper's §2 modularity sums over i≠j, so it exceeds the
        # "standard" (diagonal-including) modularity by Σd²/(2m)² ≈ 0.048
        # on karate; the known standard optimum ~0.4198 maps to ~0.468.
        assert 0.42 <= stats.reported_objective <= 0.48
        assert 2 <= stats.n_clusters <= 6

    def test_cc_objective_positive_on_community_graph(self):
        g = planted_partition(500, avg_deg=8, mixing=0.3, seed=7)
        cfg = CCConfig(resolution=0.2, to_convergence=True, seed=1)
        assign, stats = sequential_cc(g, cfg)
        assert stats.objective > 0
        assert stats.n_clusters > 1

    def test_reported_stats_consistent(self):
        g = planted_partition(300, avg_deg=6, mixing=0.3, seed=8)
        cfg = CCConfig(resolution=0.5, num_iter=5, seed=2)
        assign, stats = sequential_cc(g, cfg)
        assert stats.n_clusters == len(np.unique(assign))
        csr = build_csr(g.edges, g.n, np.ones(g.n))
        assert stats.objective == pytest.approx(csr_objective(csr, assign, 0.5), rel=1e-9)
        assert stats.total_rounds >= 1
        assert len(stats.levels) >= 1

    def test_refinement_never_hurts_objective(self):
        g = planted_partition(400, avg_deg=10, mixing=0.4, seed=9)
        base = CCConfig(resolution=0.6, num_iter=4, seed=3)
        _, s_ref = sequential_cc(g, base)
        _, s_noref = sequential_cc(g, base.with_(refine=False))
        assert s_ref.objective >= s_noref.objective - 1e-6

    def test_convergence_beats_capped(self):
        g = planted_partition(400, avg_deg=8, mixing=0.35, seed=10)
        cfg = CCConfig(resolution=0.3, num_iter=1, refine=False, seed=4)
        _, s_fast = sequential_cc(g, cfg)
        _, s_con = sequential_cc(g, cfg.with_(to_convergence=True))
        assert s_con.objective >= s_fast.objective - 1e-6

    def test_modularity_in_unit_range(self):
        g = planted_partition(300, avg_deg=8, mixing=0.3, seed=11)
        cfg = CCConfig(resolution=1.0, objective="modularity", num_iter=10, seed=5)
        _, stats = sequential_cc(g, cfg)
        assert 0.0 < stats.reported_objective <= 1.0

    def test_weighted_graph_supported(self):
        g = small_weighted_graph(12, n=80, avg_deg=6)
        cfg = CCConfig(resolution=0.4, num_iter=10, seed=6)
        assign, stats = sequential_cc(g, cfg)
        assert len(assign) == g.n
        assert np.isfinite(stats.objective)

    def test_deterministic_given_seed(self):
        g = planted_partition(200, avg_deg=6, mixing=0.3, seed=13)
        cfg = CCConfig(resolution=0.35, num_iter=8, seed=7)
        a1, s1 = sequential_cc(g, cfg)
        a2, s2 = sequential_cc(g, cfg)
        np.testing.assert_array_equal(a1, a2)
        assert s1.objective == s2.objective


def _assign_hash(assign: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(assign, dtype="<i8").tobytes()).hexdigest()[:16]


class TestPinnedOutputs:
    """Fixed-seed SEQ outputs, pinned so that a change of the move kernel shows it
    makes the same moves (values taken before the kernel was shared with PAR)."""

    @pytest.mark.parametrize(
        "graph, cfg, expected_hash, expected_objective",
        [
            (karate, CCConfig(resolution=0.3, num_iter=10, seed=3),
             "49788e4331796f72", 44.0),
            (karate, CCConfig(resolution=1.0, objective="modularity", num_iter=10, seed=3),
             "15988a99a2e501b5", 0.4695923734385272),
            (lambda: lite_graph("amazon-lite"), CCConfig(resolution=0.5, num_iter=10, seed=3),
             "a0a07e4960bc4b97", 5510.0),
            (lambda: lite_graph("amazon-lite"),
             CCConfig(resolution=1.0, objective="modularity", num_iter=10, seed=3),
             "a03f1cbc37b69458", 0.7935764897959183),
        ],
        ids=["karate-cc", "karate-mod", "amazon-lite-cc", "amazon-lite-mod"],
    )
    def test_assignment_and_objective(self, graph, cfg, expected_hash, expected_objective):
        assign, stats = sequential_cc(graph(), cfg)
        assert _assign_hash(assign) == expected_hash
        assert stats.reported_objective == expected_objective
