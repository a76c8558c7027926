"""Experiment harness helper: table formatting.

Every ``jobs/tableNN_*.py`` builds a list of row dicts and prints it with
:func:`table` as the table the corresponding section of the paper
reports, so EXPERIMENTS.md can diff paper vs measured.
"""
from __future__ import annotations

import pandas as pd


def table(rows: list[dict], *, title: str, floatfmt: int = 4) -> pd.DataFrame:
    """Assemble rows into a DataFrame and print it as a markdown-ish table."""
    df = pd.DataFrame(rows)
    with pd.option_context(
        "display.max_columns", None, "display.width", 240, "display.float_format",
        lambda x: f"{x:.{floatfmt}g}",
    ):
        print(f"\n== {title} ==")
        print(df.to_string(index=False))
    return df
