"""The engine's import-time hook that keeps zip archive indexes in Spark Python workers.

Spark's worker calls ``importlib.invalidate_caches()`` before every task,
which makes every zip importer re-read its archive's directory. Importing
``repro.core.state`` inside a task swaps those importers for ones that keep
the directory; in the driver it changes nothing.
"""
import importlib
import os
import subprocess
import sys
import textwrap
import zipfile
import zipimport
from pathlib import Path

import pandas as pd
import pytest
from pyspark.sql.types import LongType, StructField, StructType

import repro
from repro.core.config import CCConfig
from repro.core.par_louvain import parallel_cc
from repro.core.state import map_edge_partitions
from repro.graphs.gen import planted_partition
from repro.graphs.ops import to_spark


def _zip_read_counter():
    """A function that counts the zip directory reads ``importlib.invalidate_caches()`` makes.

    It is made here and not defined at module level, so a task gets it
    pickled by value and does not import this module (and the engine) to run it.
    """

    def count() -> int:
        read = zipimport._read_directory
        reads = []

        def counting(archive):
            reads.append(archive)
            return read(archive)

        zipimport._read_directory = counting
        try:
            importlib.invalidate_caches()
        finally:
            zipimport._read_directory = read
        return len(reads)

    return count


@pytest.fixture(scope="module")
def worker_report(spark):
    """What each task of a job finds, run after an engine call has used the workers."""
    g = to_spark(spark, planted_partition(300, avg_deg=6, mixing=0.3, seed=24), partitions=4)
    parallel_cc(g, CCConfig(partitions=4, num_iter=2, max_levels=2, seed=1))
    count_reads = _zip_read_counter()

    def probe(_):
        import repro.core.state as state  # what every engine block function loads

        archives = [p for p in sys.path if os.path.isfile(p) and zipfile.is_zipfile(p)]
        reads = count_reads()
        # A pyspark submodule, in a subpackage, that the worker has not imported.
        name = "pyspark.sql.avro.functions"
        fresh = name not in sys.modules
        mod = importlib.import_module(name)
        return {
            "archives": archives,
            "plain": [
                k for k, f in sys.path_importer_cache.items() if type(f) is zipimport.zipimporter
            ],
            "hook": state._KeptZipImporter in sys.path_hooks,
            "reads": reads,
            "fresh": fresh,
            "file": mod.__file__,
            "zip_loader": isinstance(mod.__spec__.loader, zipimport.zipimporter),
        }

    sc = spark.sparkContext
    tasks = sc.defaultParallelism
    reports = sc.parallelize(range(tasks), tasks).map(probe).collect()
    if not any(r["archives"] for r in reports):
        pytest.skip("the Python workers' sys.path holds no zip archive")
    return reports


@pytest.fixture(scope="module")
def sql_worker_reads(spark, worker_report):
    """Zip reads inside the tasks of ``map_edge_partitions`` (``mapInPandas``) jobs.

    The probe does not import the engine itself: only what the job ships may.
    """
    count_reads = _zip_read_counter()

    def probe(pdf: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"reads": [count_reads()]})

    schema = StructType([StructField("reads", LongType())])
    df = spark.range(16).repartition(4)
    return [
        map_edge_partitions(df, probe, schema).toPandas()["reads"].tolist() for _ in range(2)
    ]


class TestWorkerHook:
    def test_no_plain_zip_importer_left(self, worker_report):
        for r in worker_report:
            assert r["plain"] == []
            assert r["hook"]

    def test_invalidate_caches_reads_no_archive(self, worker_report):
        assert [r["reads"] for r in worker_report] == [0] * len(worker_report)

    def test_map_edge_partitions_tasks_read_no_archive(self, sql_worker_reads):
        """``mapInPandas`` tasks unpickle the engine's runner, which installs the hook."""
        for job in sql_worker_reads:
            assert job == [0] * len(job) and len(job) >= 1

    def test_new_pyspark_submodule_imports_from_zip(self, worker_report):
        for r in worker_report:
            assert r["zip_loader"]
            assert any(r["file"].startswith(a + "/") for a in r["archives"])
        assert any(r["fresh"] for r in worker_report)


def test_driver_import_changes_nothing(tmp_path):
    """Outside a task the module leaves the import system as it found it."""
    archive = tmp_path / "pkg.zip"
    with zipfile.ZipFile(archive, "w") as z:
        z.writestr("zipped_mod.py", "X = 1\n")
    script = textwrap.dedent(
        f"""
        import sys, zipimport
        sys.path.append({str(archive)!r})
        import zipped_mod
        hooks = list(sys.path_hooks)
        cache = dict(sys.path_importer_cache)
        assert type(cache[{str(archive)!r}]) is zipimport.zipimporter

        import repro.core.state

        assert sys.path_hooks == hooks
        assert all(sys.path_importer_cache[k] is f for k, f in cache.items())
        assert not any(
            isinstance(f, repro.core.state._KeptZipImporter)
            for f in sys.path_importer_cache.values()
        )
        """
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    subprocess.run([sys.executable, "-c", script], check=True, env=env)
