"""Property-based invariants of the LambdaCC framework (hypothesis).

These are the load-bearing algebraic facts the whole hierarchy rests on:
compression preserves the objective for *any* clustering, the move-delta
formula equals the true objective difference for *any* single move, and
the modularity mapping holds for *any* γ.
"""
import numpy as np
import pandas as pd
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.seq_louvain import build_csr, compress_csr
from repro.core.state import cc_objective, densify
from repro.graphs.gen import GenGraph

from tests.helpers import brute_cc, brute_modularity


@st.composite
def graphs(draw):
    n = draw(st.integers(min_value=3, max_value=14))
    max_edges = n * (n - 1) // 2
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(
        st.lists(
            st.sampled_from(pairs), min_size=1, max_size=min(max_edges, 30), unique=True
        )
    )
    ws = draw(
        st.lists(
            st.floats(min_value=0.1, max_value=3.0, allow_nan=False),
            min_size=len(chosen),
            max_size=len(chosen),
        )
    )
    pdf = pd.DataFrame(
        {"u": [p[0] for p in chosen], "v": [p[1] for p in chosen], "w": ws}
    )
    return GenGraph(name="hyp", n=n, edges=pdf)


@st.composite
def graph_and_assign(draw):
    g = draw(graphs())
    labels = draw(
        st.lists(
            st.integers(min_value=0, max_value=4), min_size=g.n, max_size=g.n
        )
    )
    return g, np.asarray(labels, dtype="int64")


_SETTINGS = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class TestObjectiveProperties:
    @given(ga=graph_and_assign(), lam=st.floats(0.0, 1.0, allow_nan=False))
    @_SETTINGS
    def test_csr_matches_brute(self, ga, lam):
        g, assign = ga
        csr = build_csr(g.edges, g.n, np.ones(g.n))
        assert abs(cc_objective(csr, assign, lam) - brute_cc(g, assign, lam)) < 1e-8

    @given(ga=graph_and_assign(), lam=st.floats(0.0, 1.0, allow_nan=False))
    @_SETTINGS
    def test_compress_preserves_objective(self, ga, lam):
        g, assign = ga
        csr = build_csr(g.edges, g.n, np.ones(g.n))
        dense, nc = densify(assign)
        child = compress_csr(csr, dense, nc)
        got = cc_objective(child, np.arange(nc), lam)
        exp = cc_objective(csr, dense, lam)
        assert abs(got - exp) < 1e-8

    @given(
        ga=graph_and_assign(),
        lam=st.floats(0.0, 1.0, allow_nan=False),
        coarse_seed=st.integers(0, 100),
    )
    @_SETTINGS
    def test_flatten_preserves_objective(self, ga, lam, coarse_seed):
        g, assign = ga
        csr = build_csr(g.edges, g.n, np.ones(g.n))
        dense, nc = densify(assign)
        child = compress_csr(csr, dense, nc)
        coarse = np.random.default_rng(coarse_seed).integers(0, 3, size=nc)
        assert (
            abs(
                cc_objective(child, coarse, lam)
                - cc_objective(csr, coarse[dense], lam)
            )
            < 1e-8
        )

    @given(ga=graph_and_assign(), gamma=st.floats(0.1, 2.0, allow_nan=False))
    @_SETTINGS
    def test_modularity_mapping(self, ga, gamma):
        g, assign = ga
        deg = np.zeros(g.n)
        np.add.at(deg, g.edges["u"].to_numpy(), g.edges["w"].to_numpy())
        np.add.at(deg, g.edges["v"].to_numpy(), g.edges["w"].to_numpy())
        two_m = deg.sum()
        csr = build_csr(g.edges, g.n, deg)
        cc = cc_objective(csr, assign, gamma / two_m)
        assert abs(cc / two_m - brute_modularity(g, assign, gamma)) < 1e-8


class TestMoveDeltaProperty:
    @given(
        ga=graph_and_assign(),
        lam=st.floats(0.0, 1.0, allow_nan=False),
        v=st.integers(0, 13),
        target=st.integers(0, 5),
    )
    @_SETTINGS
    def test_delta_formula_equals_objective_difference(self, ga, lam, v, target):
        """The appendix's Δ formula == CC(after) − CC(before) for any move."""
        g, assign = ga
        v = v % g.n
        csr = build_csr(g.edges, g.n, np.ones(g.n))
        dense, nc = densify(assign)
        cv = dense[v]
        c_new = target % (nc + 1)  # nc == fresh singleton
        if c_new == cv:
            return
        K = np.bincount(dense, weights=csr.k, minlength=nc + 1)
        (b,) = csr.blocks
        rows = b.src == v
        nbr_c = dense[b.dst[rows]]
        w_own = b.w[rows][nbr_c == cv].sum()
        w_new = b.w[rows][nbr_c == c_new].sum()
        kv = csr.k[v]
        delta = (w_new - lam * kv * K[c_new]) - (w_own - lam * kv * (K[cv] - kv))
        before = cc_objective(csr, dense, lam)
        moved = dense.copy()
        moved[v] = c_new
        after = cc_objective(csr, moved, lam)
        # Ordered-pair objective counts each unordered pair twice.
        assert abs((after - before) - 2.0 * delta) < 1e-8
