"""Objective correctness: Spark and one-block driver level objectives vs the O(n²)
definition, compression/flattening invariance, and the modularity equivalence of §2."""
import numpy as np
import pandas as pd
import pytest

from repro.core import state
from repro.core.seq_louvain import build_csr, compress_csr
from repro.core.state import cc_objective, compress, densify, flatten, level0
from repro.graphs.gen import planted_partition
from repro.graphs.ops import to_spark
from repro.oracle import assert_equivalent

from tests.helpers import (
    brute_cc,
    brute_modularity,
    numpy_reported_objective,
    pandas_compress,
    random_assign,
    small_weighted_graph,
)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("lam", [0.0, 0.1, 0.5, 0.85])
class TestCsrObjectiveVsBrute:
    def test_matches_brute_force(self, seed, lam):
        g = small_weighted_graph(seed)
        csr = build_csr(g.edges, g.n, np.ones(g.n))
        assign = random_assign(g.n, 5, seed + 10)
        got = cc_objective(csr, assign, lam)
        exp = brute_cc(g, assign, lam)
        assert got == pytest.approx(exp, rel=1e-9, abs=1e-9)


class TestSingletonObjective:
    @pytest.mark.parametrize("lam", [0.0, 0.3, 0.9])
    def test_singletons_score_zero(self, lam):
        g = small_weighted_graph(3)
        csr = build_csr(g.edges, g.n, np.ones(g.n))
        assert cc_objective(csr, np.arange(g.n), lam) == pytest.approx(0.0)


class TestSparkObjective:
    @pytest.mark.parametrize("lam", [0.05, 0.6])
    def test_matches_csr(self, spark, lam):
        g = planted_partition(200, avg_deg=6, mixing=0.3, seed=4)
        gd = to_spark(spark, g, partitions=4)
        lvl = level0(gd, np.ones(g.n), partitions=4)
        csr = build_csr(g.edges, g.n, np.ones(g.n))
        assign = random_assign(g.n, 12, 5)
        got = cc_objective(lvl, assign, lam)
        exp = cc_objective(csr, assign, lam)
        assert got == pytest.approx(exp, rel=1e-9)
        lvl.unpersist()


class TestModularityEquivalence:
    """§2: k_v = d_v, λ = γ/(2m) makes CC/(2m) equal modularity."""

    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("seed", [0, 5])
    def test_equivalence(self, gamma, seed):
        g = small_weighted_graph(seed, n=20)
        deg = np.zeros(g.n)
        np.add.at(deg, g.edges["u"].to_numpy(), g.edges["w"].to_numpy())
        np.add.at(deg, g.edges["v"].to_numpy(), g.edges["w"].to_numpy())
        two_m = deg.sum()
        csr = build_csr(g.edges, g.n, deg)
        assign = random_assign(g.n, 4, seed + 2)
        cc = cc_objective(csr, assign, gamma / two_m)
        q = brute_modularity(g, assign, gamma)
        assert cc / two_m == pytest.approx(q, rel=1e-9, abs=1e-12)


class TestCompressInvariance:
    """Compression preserves the objective exactly — the framework backbone."""

    @pytest.mark.parametrize("lam", [0.05, 0.5, 0.9])
    def test_csr_compress_preserves_objective(self, lam):
        g = small_weighted_graph(7, n=40, avg_deg=6)
        csr = build_csr(g.edges, g.n, np.ones(g.n))
        assign = random_assign(g.n, 6, 8)
        dense, nc = densify(assign)
        child = compress_csr(csr, dense, nc)
        # Singleton clustering on the child == the clustering on the parent.
        got = cc_objective(child, np.arange(nc), lam)
        exp = cc_objective(csr, dense, lam)
        assert got == pytest.approx(exp, rel=1e-9)

    @pytest.mark.parametrize("lam", [0.05, 0.5])
    def test_csr_flatten_preserves_objective(self, lam):
        g = small_weighted_graph(9, n=40, avg_deg=6)
        csr = build_csr(g.edges, g.n, np.ones(g.n))
        dense, nc = densify(random_assign(g.n, 8, 1))
        child = compress_csr(csr, dense, nc)
        coarse = random_assign(nc, 3, 2)
        flat = coarse[dense]
        assert cc_objective(child, coarse, lam) == pytest.approx(
            cc_objective(csr, flat, lam), rel=1e-9
        )

    def test_two_level_compress(self):
        lam = 0.3
        g = small_weighted_graph(11, n=60, avg_deg=7)
        csr = build_csr(g.edges, g.n, np.ones(g.n))
        d1, n1 = densify(random_assign(g.n, 10, 3))
        c1 = compress_csr(csr, d1, n1)
        d2, n2 = densify(random_assign(n1, 4, 4))
        c2 = compress_csr(c1, d2, n2)
        flat = d2[d1]
        assert cc_objective(c2, np.arange(n2), lam) == pytest.approx(
            cc_objective(csr, flat, lam), rel=1e-9
        )

    @pytest.mark.parametrize("lam", [0.1, 0.8])
    def test_spark_compress_matches_csr(self, spark, monkeypatch, lam):
        """Compressing a P=4 Spark level and SEQ's one-block driver level both
        match the pandas-groupby reference: k, sq, selfw, rows and objective."""
        g = planted_partition(150, avg_deg=6, mixing=0.3, seed=6)
        # Level 0 has DRIVER_ROWS rows, so it stays in Spark; its children have fewer.
        monkeypatch.setattr(state, "DRIVER_ROWS", 2 * len(g.edges))
        dense, nc = densify(random_assign(g.n, 9, 5))
        u, v, w = (g.edges[c].to_numpy() for c in ("u", "v", "w"))
        ones = np.ones(g.n)
        rows, k, sq, selfw = pandas_compress(
            np.concatenate([u, v]), np.concatenate([v, u]), np.concatenate([w, w]),
            ones, ones, np.zeros(g.n), dense, nc,
        )
        exp = 2.0 * selfw.sum() - lam * ((k**2).sum() - sq.sum())
        assert exp == pytest.approx(numpy_reported_objective(g, dense, lam), rel=1e-9)
        lvl = level0(to_spark(spark, g, partitions=4), ones, partitions=4)
        assert not lvl.driver
        try:
            children = {
                "spark-p4": compress(lvl, dense, nc, partitions=4),
                "driver-p1": compress_csr(build_csr(g.edges, g.n, ones), dense, nc),
            }
        finally:
            lvl.unpersist()
        for name, child in children.items():
            np.testing.assert_allclose(child.k, k, err_msg=name)
            np.testing.assert_allclose(child.sq, sq, err_msg=name)
            np.testing.assert_allclose(child.selfw, selfw, err_msg=name)
            assert child.driver  # a level below DRIVER_ROWS has its child built in the driver
            got = pd.DataFrame(
                {c: np.concatenate([getattr(b, f) for b in child.blocks])
                 for c, f in (("s", "src"), ("d", "dst"), ("w", "w"))}
            ).sort_values(["s", "d"], ignore_index=True)
            np.testing.assert_array_equal(got["s"], rows["s"], err_msg=name)
            np.testing.assert_array_equal(got["d"], rows["d"], err_msg=name)
            np.testing.assert_allclose(got["w"], rows["w"], err_msg=name)
            assert child.m_directed == len(rows)
            assert cc_objective(child, np.arange(nc), lam) == pytest.approx(exp, rel=1e-9)
            child.unpersist()

    def test_spark_compress_edges_oracle(self, spark):
        """The compression groupBy checked row-for-row against DuckDB."""
        g = planted_partition(150, avg_deg=6, mixing=0.3, seed=6)
        gd = to_spark(spark, g, partitions=4)
        lvl = level0(gd, np.ones(g.n), partitions=4)
        dense, nc = densify(random_assign(g.n, 9, 5))
        child = compress(lvl, dense, nc, partitions=4)
        sym = pd.concat(
            [
                g.edges.rename(columns={"u": "s", "v": "d"}),
                g.edges.rename(columns={"v": "s", "u": "d"}),
            ]
        )[["s", "d", "w"]]
        sym["cs"] = dense[sym["s"].to_numpy()]
        sym["cd"] = dense[sym["d"].to_numpy()]
        assert_equivalent(
            child.edges,
            "SELECT cs AS src, cd AS dst, SUM(w) AS w FROM sym "
            "WHERE cs <> cd GROUP BY cs, cd",
            sym=sym,
        )
        child.unpersist()
        lvl.unpersist()


class TestFlattenDensify:
    def test_flatten_composes(self):
        assign = np.array([0, 0, 1, 2, 1])
        coarse = np.array([5, 5, 7])
        np.testing.assert_array_equal(flatten(assign, coarse), [5, 5, 5, 7, 5])

    def test_densify_compacts(self):
        dense, n = densify(np.array([7, 3, 7, 9]))
        assert n == 3
        np.testing.assert_array_equal(dense, [1, 0, 1, 2])
