"""Tests of the benchmark's own arithmetic and output check.

Run from the repository root: ``python3 -m pytest perfbench -q``.
No Spark session is started.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from checks import check_call  # noqa: E402
from layers import MOVES  # noqa: E402
from spans import Span, self_times, tail  # noqa: E402

from repro.core.config import CCConfig  # noqa: E402
from repro.core.seq_louvain import sequential_cc  # noqa: E402
from repro.graphs.gen import planted_partition  # noqa: E402


def _span(i, parent, start, end, name="x"):
    return Span(id=i, name=name, run=1, parent=parent, start=start, end=end)


def test_self_time_subtracts_children():
    spans = [_span(0, None, 0.0, 10.0), _span(1, 0, 1.0, 3.0), _span(2, 0, 5.0, 9.0)]
    st = self_times(spans)
    assert st[0] == pytest.approx(4.0)
    assert st[1] == pytest.approx(2.0)
    assert st[2] == pytest.approx(4.0)


def test_self_time_counts_overlapping_children_once():
    spans = [_span(0, None, 0.0, 10.0), _span(1, 0, 1.0, 5.0), _span(2, 0, 4.0, 6.0)]
    assert self_times(spans)[0] == pytest.approx(5.0)


def test_self_time_ignores_grandchildren():
    spans = [_span(0, None, 0.0, 10.0), _span(1, 0, 2.0, 8.0), _span(2, 1, 3.0, 4.0)]
    st = self_times(spans)
    assert st[0] == pytest.approx(4.0)
    assert st[1] == pytest.approx(5.0)


def test_tail_leaves_ten_samples_beyond():
    values = [float(i) for i in range(100)]
    pct, value = tail(values)
    assert value == 89.0
    assert sum(v > value for v in values) == 10
    assert pct == pytest.approx(100.0 * 89 / 99)


def test_tail_with_twenty_one_samples_is_the_median():
    values = [float(i) for i in range(21)]
    assert tail(values) == (50.0, 10.0)


def test_tail_never_falls_below_the_median():
    values = [float(i) for i in range(12)]
    assert tail(values) == (50.0, 5.5)
    assert tail([3.0, 1.0, 2.0]) == (50.0, 2.0)
    assert tail([]) == (50.0, 0.0)


@pytest.fixture(scope="module", params=["cc", "modularity"])
def seq_run(request):
    g = planted_partition(400, avg_deg=8.0, mixing=0.3, cmin=10, cmax=40, seed=5)
    resolution = 0.5 if request.param == "cc" else 1.0
    cfg = CCConfig(objective=request.param, resolution=resolution, seed=2)
    assign, stats = sequential_cc(g, cfg)
    return g, assign, stats, request.param, resolution


def test_check_accepts_engine_output(seq_run):
    g, assign, stats, objective, resolution = seq_run
    assert check_call(g.edges, g.n, assign, stats, objective, resolution) == []


def test_check_rejects_corrupted_assignment(seq_run):
    g, assign, stats, objective, resolution = seq_run
    bad = assign.copy()
    # Move one vertex of the largest cluster into another existing cluster:
    # ids stay dense, so only the objective recomputation can catch it.
    big = np.bincount(bad).argmax()
    v = int(np.flatnonzero(bad == big)[0])
    bad[v] = (big + 1) % (bad.max() + 1)
    errors = check_call(g.edges, g.n, bad, stats, objective, resolution)
    assert any("objective" in e for e in errors)


def test_check_rejects_wrong_length_and_sparse_ids(seq_run):
    g, assign, stats, objective, resolution = seq_run
    assert check_call(g.edges, g.n, assign[:-1], stats, objective, resolution)
    sparse = assign * 2
    assert check_call(g.edges, g.n, sparse, stats, objective, resolution)


def test_benchmark_json_names_known_workloads_and_layer_metrics():
    here = Path(__file__).resolve().parent
    bench = json.loads((here.parent / "BENCHMARK.json").read_text())
    specs = json.loads((here / "workloads.json").read_text())
    assert {w["name"] for w in bench["workloads"]} <= set(specs)
    assert [m["name"] for m in bench["per_layer"]] == list(MOVES)
