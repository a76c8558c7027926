"""Shared scaffolding for the table jobs.

Every ``jobs/tableNN_*.py`` exposes ``run(spark, quick=False) -> DataFrame``
and can be launched with ``spark-submit jobs/tableNN_*.py``. ``quick``
trims sweeps to benchmark-friendly sizes (the settings used for the
numbers recorded in EXPERIMENTS.md).
"""
from __future__ import annotations

import os
import sys
import time


def get_spark():
    """Session for standalone spark-submit runs (tests use the fixture)."""
    os.environ.setdefault("SPARK_SHUFFLE_PARTITIONS", "8")
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))
    import conftest  # noqa: F401  (sets PYSPARK_SUBMIT_ARGS pre-import)
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("repro-job")
        .config("spark.sql.shuffle.partitions", os.environ["SPARK_SHUFFLE_PARTITIONS"])
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def warm(fn):
    """``fn()`` after one untimed warm-up call: (its result, seconds).

    The first call of a Spark algorithm also pays for Python worker start-up
    and imports, which a user pays once per session, not per call.
    """
    fn()
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def main(run):
    spark = get_spark()
    run(spark, quick=False)
