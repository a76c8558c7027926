"""DuckDB-oracle checks for the remaining aggregation-shaped results:
intra-cluster weights, cluster sizes, tectonic weights, pivot rounds."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.baselines.pivot import _min_nbr_ranks
from repro.baselines.tectonic import tectonic_weights
from repro.core.state import intra_weight, level0
from repro.graphs.gen import planted_partition
from repro.graphs.ops import to_spark
from repro.oracle import assert_equivalent

from tests.helpers import random_assign


@pytest.fixture(scope="module")
def graph_pair(spark):
    g = planted_partition(220, avg_deg=7, mixing=0.3, seed=40)
    gd = to_spark(spark, g, partitions=4)
    gd.edges.cache().count()
    yield g, gd
    gd.edges.unpersist()


def _sym_pdf(g):
    return pd.concat(
        [
            g.edges.rename(columns={"u": "src", "v": "dst"}),
            g.edges.rename(columns={"v": "src", "u": "dst"}),
        ]
    )[["src", "dst", "w"]]


class TestIntraWeightOracle:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_duckdb(self, graph_pair, seed):
        g, gd = graph_pair
        assign = random_assign(g.n, 7, seed)
        lvl = level0(gd, np.ones(g.n), partitions=4)
        got = intra_weight(lvl, assign)
        lvl.unpersist()
        sym = _sym_pdf(g)
        sym["cs"] = assign[sym["src"].to_numpy()]
        sym["cd"] = assign[sym["dst"].to_numpy()]
        import duckdb

        exp = duckdb.sql(
            "SELECT COALESCE(SUM(w), 0) FROM sym WHERE cs = cd"
        ).fetchone()[0]
        assert got == pytest.approx(float(exp), rel=1e-9)


class TestPivotRoundOracle:
    def test_min_neighbor_ranks_match_duckdb(self, spark, graph_pair):
        """A pivot round's per-vertex min rank over unclustered and over pivot
        neighbors, from the level-0 blocks, against a DuckDB join + GROUP BY."""
        g, gd = graph_pair
        rng = np.random.default_rng(41)
        rank = rng.permutation(g.n).astype("int64")
        is_pivot = rng.random(g.n) < 0.15
        labels = np.where(rng.random(g.n) < 0.5, -1, rng.integers(0, g.n, g.n))
        labels[is_pivot] = np.flatnonzero(is_pivot)
        lvl = level0(gd, partitions=4)
        try:
            parts = lvl.map_blocks(_min_nbr_ranks, (labels, rank, is_pivot))
        finally:
            lvl.unpersist()
        verts, min_unc, min_piv = (np.concatenate(c) for c in zip(*parts))
        state = pd.DataFrame(
            {"v": np.arange(g.n), "label": labels, "rank": rank, "pivot": is_pivot}
        )
        none = np.iinfo(np.int64).max
        for got, keep in ((min_unc, "s.label = -1"), (min_piv, "s.pivot")):
            has = got < none
            assert_equivalent(
                spark.createDataFrame(pd.DataFrame({"src": verts[has], "r": got[has]})),
                "SELECT e.src, MIN(s.rank) AS r FROM sym e JOIN state s ON e.dst = s.v "
                f"WHERE {keep} GROUP BY e.src",
                sym=_sym_pdf(g),
                state=state,
            )


class TestClusterSizesOracle:
    def test_groupby_matches_duckdb(self, spark, graph_pair):
        g, gd = graph_pair
        assign = random_assign(g.n, 5, 3)
        pdf = pd.DataFrame({"v": np.arange(g.n), "c": assign})
        sdf = spark.createDataFrame(pdf).groupBy("c").agg(F.count("*").alias("size"))
        assert_equivalent(
            sdf, "SELECT c, COUNT(*) AS size FROM assign GROUP BY c", assign=pdf
        )


class TestTectonicWeightsOracle:
    def test_scores_match_duckdb_triangle_sql(self, graph_pair):
        """Tectonic's per-edge score recomputed end-to-end in DuckDB."""
        g, gd = graph_pair
        got = tectonic_weights(gd).toPandas().sort_values(["u", "v"]).reset_index(drop=True)
        import duckdb

        sym = _sym_pdf(g)
        exp = duckdb.sql(
            """
            WITH deg AS (SELECT src AS v, COUNT(*) AS d FROM sym GROUP BY src),
            tri AS (
              SELECT e1.src AS u, e1.dst AS v, COUNT(*) AS t
              FROM sym e1 JOIN sym e2 ON e1.dst = e2.src
                          JOIN sym e3 ON e3.src = e1.src AND e3.dst = e2.dst
              WHERE e1.src < e1.dst
              GROUP BY e1.src, e1.dst
            )
            SELECT s.src AS u, s.dst AS v,
                   2.0 * COALESCE(t.t, 0) / (d1.d + d2.d) AS score
            FROM sym s
            LEFT JOIN tri t ON t.u = s.src AND t.v = s.dst
            JOIN deg d1 ON d1.v = s.src
            JOIN deg d2 ON d2.v = s.dst
            WHERE s.src < s.dst
            ORDER BY 1, 2
            """
        ).fetchdf()
        assert len(got) == len(exp)
        np.testing.assert_array_equal(got["u"].to_numpy(), exp["u"].to_numpy())
        np.testing.assert_allclose(
            got["score"].to_numpy(), exp["score"].to_numpy(), rtol=1e-9
        )


class TestCompressedDegreeOracle:
    def test_compressed_graph_degrees(self, spark, graph_pair):
        from repro.core.state import compress, densify

        g, gd = graph_pair
        lvl = level0(gd, np.ones(g.n), partitions=4)
        dense, nc = densify(random_assign(g.n, 6, 4))
        child = compress(lvl, dense, nc, partitions=4)
        got = child.edges.groupBy("src").agg(F.sum("w").alias("deg"))
        sym = _sym_pdf(g)
        sym["cs"] = dense[sym["src"].to_numpy()]
        sym["cd"] = dense[sym["dst"].to_numpy()]
        assert_equivalent(
            got,
            "SELECT cs AS src, SUM(w) AS deg FROM sym WHERE cs <> cd GROUP BY cs",
            sym=sym,
        )
        child.unpersist()
        lvl.unpersist()
