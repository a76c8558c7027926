"""The per-vertex local-move kernel shared by SEQ-CC and both PAR-CC modes.

``local_moves`` visits vertices one at a time and finds each one's best
move. With ``apply`` it applies each improving move to its assignment and
cluster-weight state at once: Algorithm 2's sweep when the state is the
whole graph's exact ``K`` (``seq_louvain``), and one asynchronous block
pass when it is a block's stale copy (``par_louvain``). Without it every
vertex is scored against the same snapshot, one synchronous block pass.
The loop is one C function (``kernel.c``), reached through ctypes on numpy
arrays: a vertex has few rows, so the loop is bound by per-vertex work,
which costs about 0.4 µs per row in Python and 0.015 µs in C.

Importing this module builds ``kernel.c`` with the installed ``cc``
(``-O2 -ffp-contract=off``, so no fused multiply-add changes a rounding)
into the package's ``__pycache__``, once per hash of the source and the
flags. The library is published by an atomic rename, so the driver, Spark
workers and tests never load a half-written file. A failed build raises
``ImportError`` with the compiler's output.
"""
from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from pathlib import Path

import numpy as np

_SOURCE = Path(__file__).with_name("kernel.c")
_FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")


def _load() -> ctypes.CDLL:
    """The compiled kernel, built into ``__pycache__`` unless a build of this source is there."""
    source = _SOURCE.read_bytes()
    key = hashlib.sha256(source + " ".join(_FLAGS).encode()).hexdigest()[:16]
    lib = _SOURCE.parent / "__pycache__" / f"kernel-{key}.so"
    if not lib.exists():
        lib.parent.mkdir(exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=lib.parent, prefix=f".{lib.stem}-", suffix=".so")
        os.close(fd)
        try:
            try:
                build = subprocess.run(
                    ["cc", *_FLAGS, "-o", tmp, str(_SOURCE)], capture_output=True, text=True
                )
            except OSError as e:
                raise ImportError(f"cannot run cc to build {_SOURCE.name}: {e}") from e
            if build.returncode:
                raise ImportError(f"cc failed to build {_SOURCE.name}:\n{build.stderr}")
            os.replace(tmp, lib)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    return ctypes.CDLL(str(lib))


_IDS = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")
_WEIGHTS = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
_OUT_IDS = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS,WRITEABLE")
_OUT_WEIGHTS = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS,WRITEABLE")
_N = ctypes.c_int64

_kernel = _load().local_moves
_kernel.restype = ctypes.c_int64
# a and K are written only when apply is set; local_moves checks them then.
_kernel.argtypes = [
    _IDS, _N,  # order
    _IDS, _IDS, _N,  # indptr, verts
    _IDS, _WEIGHTS, _N,  # dst, w
    _IDS, _WEIGHTS, _N,  # a, k
    _WEIGHTS, _N,  # K
    ctypes.c_double, _N, ctypes.c_double, _N,  # lam, U, tol, apply
    _OUT_IDS, _OUT_IDS, _OUT_WEIGHTS,  # moves
]


def local_moves(
    order: np.ndarray,
    indptr: np.ndarray,
    dst: np.ndarray,
    w: np.ndarray,
    verts: np.ndarray,
    a: np.ndarray,
    K: np.ndarray,
    k: np.ndarray,
    lam: float,
    U: int,
    tol: float,
    apply: bool = True,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Best immediate move of each vertex of ``order``, applied to ``a`` and ``K`` in place.

    Row ``i`` of the CSR (``indptr``/``dst``/``w``) holds the out-edges of
    vertex ``verts[i]``; ``order`` lists the rows to visit. ``a`` (int64) is
    the cluster label of every vertex and ``K`` (float64) the total vertex
    weight of every label, long enough for the detach labels ``U + v``. A
    vertex sums its weight to each neighbouring cluster in row order and
    moves to the cluster with the largest delta ``(w_c − (λ·k_v)·K_c) −
    base``, ties going to the smallest cluster id, or detaches into the
    fresh singleton ``U + v`` when that is strictly better. Detach stays out
    of the running maximum because a real label can itself be ≥ U (a
    singleton made earlier in the pass). Only moves whose delta exceeds
    ``tol`` are made.

    With ``apply=False`` no move is applied: ``a`` and ``K`` are only read
    (they may be read-only, and ``K`` may stop at label ``U``), so every
    vertex is scored against the same snapshot.

    Returns the moved vertices, their new labels and their deltas, in
    visiting order.
    """
    order, indptr, dst, verts = (
        np.ascontiguousarray(x, dtype=np.int64) for x in (order, indptr, dst, verts)
    )
    w, k = (np.ascontiguousarray(x, dtype=np.float64) for x in (w, k))
    if apply:
        # Updated in place, so they are taken as they are: a copy would drop the moves.
        _OUT_IDS.from_param(a)
        _OUT_WEIGHTS.from_param(K)
    else:
        a = np.ascontiguousarray(a, dtype=np.int64)
        K = np.ascontiguousarray(K, dtype=np.float64)
    if len(indptr) != len(verts) + 1 or len(w) != len(dst) or len(k) != len(a):
        raise ValueError("local_moves: indptr, verts, dst, w, a and k disagree in length")
    mv_v = np.empty(len(order), dtype=np.int64)
    mv_c = np.empty(len(order), dtype=np.int64)
    mv_d = np.empty(len(order), dtype=np.float64)
    got = _kernel(
        order, len(order), indptr, verts, len(verts), dst, w, len(dst),
        a, k, len(a), K, len(K), lam, U, tol, int(apply), mv_v, mv_c, mv_d,
    )
    if got == -2:
        raise MemoryError("local_moves: no memory for the per-cluster sums")
    if got < 0:
        raise IndexError("local_moves: a row, vertex or label is out of range")
    return mv_v[:got], mv_c[:got], mv_d[:got]
