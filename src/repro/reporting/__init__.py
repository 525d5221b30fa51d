"""Rendering: monospace tables and CSV figure series.

The paper's figures are CDFs, time series, and matrices; without a
plotting dependency we emit each figure as a data series (CSV) and each
table as aligned monospace text, which is what the benchmark harness
prints and what EXPERIMENTS.md quotes.
"""

from .tables import render_matrix_cells, render_table
from .figures import write_series
from .study import generate_study_report

__all__ = [
    "render_matrix_cells",
    "render_table",
    "write_series",
    "generate_study_report",
]
