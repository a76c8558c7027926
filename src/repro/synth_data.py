"""Synthetic inputs: the single entry point the repo convention asks for.

This paper evaluates on graphs, so the generators (SNAP-like community
graphs, rMAT, karate, weighted k-NN) live in ``repro.graphs.gen`` and are
re-exported here. They are deterministic in ``seed``, so the DuckDB oracle
sees identical input.
"""
from .graphs.gen import (  # noqa: F401
    GenGraph,
    blobs,
    digits_like,
    karate,
    knn_graph,
    letter_like,
    lite_graph,
    lite_suite,
    planted_partition,
    rmat,
)
