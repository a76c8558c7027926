"""The move kernels, checked move for move against the code they replaced: the
shared local-move kernel (core.kernel.local_moves) against the numpy-per-vertex
loop (tests.helpers.numpy_local_moves), and the synchronous block kernel
(par_louvain._sync_block_moves) against its lexsort selection
(tests.helpers.lexsort_sync_block_moves)."""
import numpy as np
import pytest

from repro.core.kernel import local_moves
from repro.core.par_louvain import _async_block_moves, _sync_block_moves
from repro.core.state import Block, cluster_weights, densify, make_block, route

from tests.helpers import (
    lexsort_sync_block_moves,
    numpy_async_block_moves,
    numpy_local_moves,
)


def _blocks(seed: int, n: int, m: int, unit: bool, partitions: int = 3) -> list[Block]:
    """Random symmetric graph on n vertices split into logical blocks."""
    rng = np.random.default_rng(seed)
    u = rng.integers(0, n, size=m)
    v = rng.integers(0, n, size=m)
    keep = u != v
    u, v = u[keep], v[keep]
    w = np.ones(len(u)) if unit else rng.uniform(0.1, 2.0, size=len(u))
    src, dst, ww = np.concatenate([u, v]), np.concatenate([v, u]), np.concatenate([w, w])
    return [make_block(*piece, part=p) for p, piece in route(src, dst, ww, partitions)]


def _state(seed: int, n: int, clusters: int, unit_k: bool):
    rng = np.random.default_rng(seed + 100)
    a, U = densify(rng.integers(0, clusters, size=n))
    k = np.ones(n) if unit_k else rng.uniform(0.5, 3.0, size=n)
    return a, U, cluster_weights(a, k, U), k


def _assert_same(got, exp):
    for g, e in zip(got, exp):
        np.testing.assert_array_equal(g, e)  # exact: ids, labels and deltas


class TestAsyncBlockPass:
    """``_async_block_moves`` (list kernel) against the numpy reference pass."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("clusters", [5, 40, 120])
    def test_unit_weights_many_ties(self, seed, clusters):
        # Unit weights and k at λ=0.5 make many deltas tie exactly.
        n = 120
        a, U, K, k = _state(seed, n, clusters, unit_k=True)
        for b in _blocks(seed, n, 400, unit=True):
            args = (b, a, K, k, 0.5, U, 1e-9, True, None, None, seed, n)
            got = _async_block_moves(*args)
            assert len(got[0]) > 0
            _assert_same(got, numpy_async_block_moves(*args))

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("lam", [0.05, 0.3, 0.9])
    def test_fractional_weights(self, seed, lam):
        n = 90
        a, U, K, k = _state(seed, n, 20, unit_k=False)
        for b in _blocks(seed, n, 300, unit=False):
            args = (b, a, K, k, lam, U, 1e-9, True, None, None, seed, n)
            _assert_same(_async_block_moves(*args), numpy_async_block_moves(*args))

    @pytest.mark.parametrize("seed", range(4))
    def test_sparse_frontier(self, seed):
        n = 150
        rng = np.random.default_rng(seed + 7)
        a, U, K, k = _state(seed, n, 30, unit_k=True)
        aux = rng.random(n) < 0.05  # movers: their neighbours are active
        extra = rng.random(n) < 0.05  # skipped or affected vertices
        for b in _blocks(seed, n, 500, unit=True):
            args = (b, a, K, k, 0.5, U, 1e-9, False, aux, extra, seed, n)
            _assert_same(_async_block_moves(*args), numpy_async_block_moves(*args))

    @pytest.mark.parametrize("seed", range(4))
    def test_full_participation(self, seed):
        n = 100
        a, U, K, k = _state(seed, n, 25, unit_k=seed % 2 == 0)
        for b in _blocks(seed, n, 350, unit=seed % 2 == 0):
            args = (b, a, K, k, 0.4, U, 1e-9, True, None, None, seed, n)
            got = _async_block_moves(*args, sample=False)
            _assert_same(got, numpy_async_block_moves(*args, sample=False))


class TestLocalMoves:
    def test_label_at_least_u_ties_with_detach(self):
        """Vertex 3 detaches into label U+3 = 5; vertex 1 then gains exactly as
        much by joining 5 as by detaching into U+1 = 3. Detach must be strictly
        better to win, so 1 joins 5, although 3 < 5."""
        rows = [(0, 1, 0.25), (1, 3, 0.5), (2, 3, 0.25)]
        src = np.array([r[0] for r in rows] + [r[1] for r in rows])
        dst = np.array([r[1] for r in rows] + [r[0] for r in rows])
        w = np.array([r[2] for r in rows] * 2)
        b = make_block(src, dst, w)
        a = np.array([0, 0, 1, 1])
        k = np.ones(4)
        U, lam, n = 2, 0.5, 4
        K = cluster_weights(a, k, U)
        order = [3, 1]  # rows of vertices 3 and 1 (verts = 0..3)
        exp = numpy_local_moves(order, b, a, K, k, lam, U, 1e-9, n)
        local_K = K.tolist() + [0.0] * (n + 1)
        got = local_moves(
            order, b.indptr.tolist(), b.dst.tolist(), b.w.tolist(), b.verts.tolist(),
            a.tolist(), local_K, k.tolist(), lam, U, 1e-9,
        )
        _assert_same([np.asarray(x) for x in got], exp)
        assert got == ([3, 1], [5, 5], [0.25, 0.25])

    def test_updates_state_in_place_and_skips_rowless_vertices(self):
        # Vertex 2 has no rows: it is visited but can neither move nor detach.
        indptr, dst, w = [0, 1, 2, 2], [1, 0], [1.0, 1.0]
        a, K = [0, 1, 2], [1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0]
        got = local_moves([2, 0, 1], indptr, dst, w, range(3), a, K, [1.0] * 3, 0.1, 3, 1e-9)
        assert got == ([0], [1], [0.9])
        assert a == [1, 1, 2] and K[:3] == [0.0, 2.0, 1.0]


class TestSyncBlockPass:
    """``_sync_block_moves`` (one stable sort, segment max) against the lexsort selection."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("clusters", [5, 40, 120])
    def test_unit_weights_many_ties(self, seed, clusters):
        # Unit weights and k at λ=0.5 make many deltas tie exactly.
        n = 120
        a, U, K, k = _state(seed, n, clusters, unit_k=True)
        for b in _blocks(seed, n, 400, unit=True):
            args = (b, a, K, k, 0.5, U, 1e-9, True, None, None)
            got = _sync_block_moves(*args)
            assert len(got[0]) > 0
            _assert_same(got, lexsort_sync_block_moves(*args))

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("lam", [0.05, 0.3, 0.9])
    def test_fractional_weights_sparse_frontier(self, seed, lam):
        n = 150
        rng = np.random.default_rng(seed + 7)
        a, U, K, k = _state(seed, n, 20, unit_k=False)
        aux = rng.random(n) < 0.05  # movers: their neighbours are active
        extra = rng.random(n) < 0.05  # skipped or affected vertices
        for b in _blocks(seed, n, 500, unit=False):
            for frontier in ((True, None, None), (False, aux, extra), (False, None, extra)):
                args = (b, a, K, k, lam, U, 1e-9, *frontier)
                _assert_same(_sync_block_moves(*args), lexsort_sync_block_moves(*args))

    @pytest.mark.parametrize("seed", range(4))
    def test_labels_at_least_u(self, seed):
        """Labels in the pre-densify space, up to U + n, as after detaches."""
        n = 100
        rng = np.random.default_rng(seed + 11)
        a, U, _, k = _state(seed, n, 10, unit_k=True)
        detached = rng.random(n) < 0.3
        a = np.where(detached, U + np.arange(n), a)
        K = np.bincount(a, weights=k, minlength=U + n + 1)
        for b in _blocks(seed, n, 350, unit=True):
            args = (b, a, K, k, 0.5, U, 1e-9, True, None, None)
            got = _sync_block_moves(*args)
            assert (got[1] >= U).any()
            _assert_same(got, lexsort_sync_block_moves(*args))

    def test_empty_frontier(self):
        n = 60
        a, U, K, k = _state(0, n, 8, unit_k=True)
        nobody = np.zeros(n, dtype=bool)
        for b in _blocks(0, n, 200, unit=True):
            for frontier in ((False, None, None), (False, nobody, nobody)):
                got = _sync_block_moves(b, a, K, k, 0.5, U, 1e-9, *frontier)
                assert [len(x) for x in got] == [0, 0, 0]
                _assert_same(got, lexsort_sync_block_moves(b, a, K, k, 0.5, U, 1e-9, *frontier))
