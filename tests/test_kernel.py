"""The move kernels, checked move for move against their references: the
compiled local-move kernel (core.kernel.local_moves) against the numpy-per-vertex
loop (tests.helpers.numpy_local_moves), in both block passes, and the
synchronous block pass (par_louvain._sync_block_moves) also against a lexsort
selection (tests.helpers.lexsort_sync_block_moves)."""
import re
import subprocess

import numpy as np
import pytest

from repro.core import kernel
from repro.core.kernel import local_moves
from repro.core.par_louvain import _async_block_moves, _sync_block_moves
from repro.core.state import Block, cluster_weights, densify, make_block, route

from tests.helpers import (
    lexsort_sync_block_moves,
    numpy_async_block_moves,
    numpy_local_moves,
    numpy_sync_block_moves,
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
    """``_async_block_moves`` (compiled kernel) against the numpy reference pass."""

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


def _by_vertex(b: Block, n: int) -> Block:
    """``b`` with one row range per vertex id 0..n-1, so vertices without rows have empty ones."""
    indptr = np.searchsorted(b.src, np.arange(n + 1)).astype("int64")
    return b._replace(verts=np.arange(n), indptr=indptr)


class TestLocalMoves:
    """The compiled ``kernel.local_moves`` against the numpy reference, move for
    move, and its in-place state against the moves replayed in order."""

    @staticmethod
    def _check(order, b, a, K, k, lam, U, tol, n):
        """Run the kernel on copies; return its moves after checking them and its state."""
        order = np.asarray(order, dtype="int64")
        exp = numpy_local_moves(order, b, a, K, k, lam, U, tol, n)
        got_a = a.copy()
        got_K = np.zeros(U + n + 1)
        got_K[: len(K)] = K
        exp_K = got_K.copy()
        got = local_moves(order, b.indptr, b.dst, b.w, b.verts, got_a, got_K, k, lam, U, tol)
        _assert_same(got, exp)
        exp_a = a.copy()
        for v, c in zip(*exp[:2]):
            exp_K[exp_a[v]] -= k[v]
            exp_K[c] += k[v]
            exp_a[v] = c
        np.testing.assert_array_equal(got_a, exp_a)
        np.testing.assert_array_equal(got_K, exp_K)
        return got

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("unit", [True, False], ids=["unit", "fractional"])
    def test_random_blocks(self, seed, unit):
        n = 120
        a, U, K, k = _state(seed, n, 30, unit_k=unit)
        order_rng = np.random.default_rng(seed + 3)
        for b in _blocks(seed, n, 400, unit=unit):
            got = self._check(order_rng.permutation(len(b.verts)), b, a, K, k, 0.4, U, 1e-9, n)
            assert len(got[0]) > 0

    @pytest.mark.parametrize("seed", range(4))
    def test_partial_random_orders(self, seed):
        """Orders that visit a random part of the rows, some of them twice."""
        n = 100
        a, U, K, k = _state(seed, n, 20, unit_k=False)
        order_rng = np.random.default_rng(seed + 5)
        for b in _blocks(seed, n, 350, unit=False):
            rows = len(b.verts)
            part = order_rng.choice(rows, size=rows // 3, replace=False)
            twice = np.concatenate([part, order_rng.choice(rows, size=rows // 4)])
            for order in (part, twice, part[:1], part[:0]):
                self._check(order, b, a, K, k, 0.3, U, 1e-9, n)

    @pytest.mark.parametrize("seed", range(4))
    def test_large_lambda_detaches(self, seed):
        """Few heavy clusters at λ = 3: vertices leave them for fresh singletons U + v."""
        n = 120
        a, U, K, k = _state(seed, n, 3, unit_k=seed % 2 == 0)
        for b in _blocks(seed, n, 300, unit=seed % 2 == 0):
            got = self._check(np.arange(len(b.verts)), b, a, K, k, 3.0, U, 1e-9, n)
            assert (got[1] >= U).any()

    @pytest.mark.parametrize("seed", range(4))
    def test_labels_at_least_u(self, seed):
        """Labels in the pre-densify space, up to U + n, as after detaches."""
        n = 100
        rng = np.random.default_rng(seed + 11)
        a, U, _, k = _state(seed, n, 10, unit_k=True)
        a = np.where(rng.random(n) < 0.3, U + np.arange(n), a)
        K = np.bincount(a, weights=k, minlength=U + n + 1)
        moved_to_high = False
        for b in _blocks(seed, n, 350, unit=True):
            got = self._check(rng.permutation(len(b.verts)), b, a, K, k, 0.5, U, 1e-9, n)
            moved_to_high |= bool((got[1] >= U).any())
        assert moved_to_high

    @pytest.mark.parametrize("seed", range(2))
    def test_rowless_vertices(self, seed):
        """Row ranges by vertex id (as SEQ's sweeps pass them): the singletons
        without rows are visited and make no move."""
        n = 150
        rng = np.random.default_rng(seed + 13)
        (b,) = _blocks(seed, n, 60, unit=False, partitions=1)
        b = _by_vertex(b, n)
        rowless = np.flatnonzero(np.diff(b.indptr) == 0)
        assert len(rowless) > 0
        a, U = densify(rng.integers(0, 40, size=n))
        a[rowless] = U + np.arange(len(rowless))  # each its own singleton
        a, U = densify(a)
        k = rng.uniform(0.5, 2.0, size=n)
        got = self._check(rng.permutation(n), b, a, cluster_weights(a, k, U), k, 0.2, U, 1e-9, n)
        assert len(got[0]) > 0 and not np.isin(got[0], rowless).any()

    def test_delta_exactly_at_tolerance(self):
        """A move is made only when its delta exceeds ``tol`` strictly: vertex 0
        gains exactly 1 − 0.1 = 0.9 by joining vertex 1."""
        b = make_block(np.array([0, 1]), np.array([1, 0]), np.ones(2))
        a = np.arange(2)
        k = np.ones(2)
        K = cluster_weights(a, k, 2)
        assert [len(x) for x in self._check([0], b, a, K, k, 0.1, 2, 0.9, 2)] == [0, 0, 0]
        got = self._check([0], b, a, K, k, 0.1, 2, np.nextafter(0.9, 0.0), 2)
        assert got[0].tolist() == [0] and got[2].tolist() == [0.9]

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
        got = self._check([3, 1], b, a, K, k, lam, U, 1e-9, n)  # rows of vertices 3 and 1
        assert [x.tolist() for x in got] == [[3, 1], [5, 5], [0.25, 0.25]]

    def test_updates_state_in_place_and_skips_rowless_vertices(self):
        # Vertex 2 has no rows: it is visited but can neither move nor detach,
        # although it shares a cluster.
        indptr, dst, w = np.array([0, 1, 2, 2]), np.array([1, 0]), np.ones(2)
        a, K = np.array([0, 1, 1]), np.array([1.0, 2.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        got = local_moves(
            np.array([2, 0, 1]), indptr, dst, w, np.arange(3), a, K, np.ones(3), 0.1, 3, 1e-9
        )
        assert [x.tolist() for x in got] == [[0], [1], [1.0 - 0.1 * 2.0]]
        assert a.tolist() == [1, 1, 1] and K[:3].tolist() == [0.0, 3.0, 0.0]

    def test_rejects_out_of_range_rows_and_labels(self):
        indptr, dst, w, verts = np.array([0, 1, 2]), np.array([1, 0]), np.ones(2), np.arange(2)
        a, K, k = np.arange(2), np.ones(5), np.ones(2)
        with pytest.raises(IndexError):
            local_moves(np.array([2]), indptr, dst, w, verts, a, K, k, 0.1, 2, 1e-9)
        with pytest.raises(IndexError):
            local_moves(np.array([0]), indptr, np.array([5, 0]), w, verts, a, K, k, 0.1, 2, 1e-9)
        with pytest.raises(ValueError):
            local_moves(np.array([0]), indptr[:2], dst, w, verts, a, K, k, 0.1, 2, 1e-9)

    @pytest.mark.parametrize("seed", range(3))
    def test_without_apply_reads_a_snapshot(self, seed):
        """``apply=False`` writes nothing to ``a`` or ``K``, takes read-only
        arrays (as a Spark broadcast may hand them) and a ``K`` of length U
        although detach labels U + v lie past it, and scores every vertex
        against the snapshot, as the numpy loop with updates off does."""
        n = 120
        a, U, K, k = _state(seed, n, 3, unit_k=False)
        assert len(K) == U
        a_bytes, K_bytes = a.tobytes(), K.tobytes()
        for arr in (a, K):
            arr.flags.writeable = False
        detached = False
        for b in _blocks(seed, n, 300, unit=False):
            order = np.arange(len(b.verts))
            args = (b.indptr, b.dst, b.w, b.verts, a, K, k, 3.0, U, 1e-9)
            got = local_moves(order, *args, apply=False)
            _assert_same(got, numpy_local_moves(order, b, a, K, k, 3.0, U, 1e-9, n, apply=False))
            detached |= bool((got[1] >= U).any())
        assert detached
        assert a.tobytes() == a_bytes and K.tobytes() == K_bytes

    def test_apply_rejects_read_only_state(self):
        """Moves are applied in place, so read-only ``a`` or ``K`` is refused, not copied."""
        indptr, dst, w, verts = np.array([0, 1, 2]), np.array([1, 0]), np.ones(2), np.arange(2)
        k = np.ones(2)
        for frozen in ("a", "K"):
            state = {"a": np.arange(2), "K": np.ones(5)}
            state[frozen].flags.writeable = False
            with pytest.raises(TypeError):
                local_moves(
                    np.array([0]), indptr, dst, w, verts, state["a"], state["K"], k, 0.1, 2, 1e-9
                )


class TestBuild:
    """``kernel._load`` builds a source once into its ``__pycache__`` and reports
    a failed build; the C signature matches the ctypes declaration."""

    def test_argtypes_match_c_parameters(self):
        """ctypes does not check a declaration against the C function: a
        parameter added on one side only would shift every later argument."""
        source = kernel._SOURCE.read_text()
        params = re.search(r"int64_t local_moves\((.*?)\)\s*\{", source, re.S).group(1)
        assert len(params.split(",")) == len(kernel._kernel.argtypes)

    def test_builds_without_warnings(self, tmp_path):
        build = subprocess.run(
            ["cc", *kernel._FLAGS, "-Wall", "-Wextra", "-Werror", "-o", str(tmp_path / "k.so"),
             str(kernel._SOURCE)],
            capture_output=True,
            text=True,
        )
        assert build.returncode == 0, build.stderr

    def test_builds_once_and_leaves_no_partial_file(self, tmp_path, monkeypatch):
        source = tmp_path / "kernel.c"
        source.write_bytes(kernel._SOURCE.read_bytes())
        monkeypatch.setattr(kernel, "_SOURCE", source)
        kernel._load()
        built = list((tmp_path / "__pycache__").iterdir())
        assert len(built) == 1 and built[0].suffix == ".so" and not built[0].name.startswith(".")
        mtime = built[0].stat().st_mtime_ns
        kernel._load()
        assert list((tmp_path / "__pycache__").iterdir()) == built
        assert built[0].stat().st_mtime_ns == mtime

    def test_failed_build_raises_import_error_with_compiler_output(self, tmp_path, monkeypatch):
        source = tmp_path / "kernel.c"
        source.write_text("int local_moves(void) { return not_declared; }\n")
        monkeypatch.setattr(kernel, "_SOURCE", source)
        with pytest.raises(ImportError, match="not_declared"):
            kernel._load()
        assert list((tmp_path / "__pycache__").iterdir()) == []


class TestSyncBlockPass:
    """``_sync_block_moves`` (the compiled loop with updates off) against the
    numpy loop with updates off, exactly, and against the lexsort selection.
    The lexsort reference sums pairwise, so on fractional weights it is held
    to the same vertices and labels and to deltas within rel 1e-12."""

    @staticmethod
    def _check(*args, exact_lexsort=True):
        got = _sync_block_moves(*args)
        _assert_same(got, numpy_sync_block_moves(*args))
        lex = lexsort_sync_block_moves(*args)
        if exact_lexsort:
            _assert_same(got, lex)
        else:
            _assert_same(got[:2], lex[:2])
            np.testing.assert_allclose(got[2], lex[2], rtol=1e-12, atol=0)
        return got

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("clusters", [5, 40, 120])
    def test_unit_weights_many_ties(self, seed, clusters):
        # Unit weights and k at λ=0.5 make many deltas tie exactly.
        n = 120
        a, U, K, k = _state(seed, n, clusters, unit_k=True)
        for b in _blocks(seed, n, 400, unit=True):
            got = self._check(b, a, K, k, 0.5, U, 1e-9, True, None, None)
            assert len(got[0]) > 0

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
                self._check(b, a, K, k, lam, U, 1e-9, *frontier, exact_lexsort=False)

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
            got = self._check(b, a, K, k, 0.5, U, 1e-9, True, None, None)
            assert (got[1] >= U).any()

    def test_empty_frontier(self):
        n = 60
        a, U, K, k = _state(0, n, 8, unit_k=True)
        nobody = np.zeros(n, dtype=bool)
        for b in _blocks(0, n, 200, unit=True):
            for frontier in ((False, None, None), (False, nobody, nobody)):
                got = self._check(b, a, K, k, 0.5, U, 1e-9, *frontier)
                assert [len(x) for x in got] == [0, 0, 0]
