"""Analyses reproducing the paper's tables and figures.

``characterization`` covers Section 3 (Tables 1-7, Figures 1-3),
``temporal`` covers Section 4.1-4.2 (Figures 4-7, Table 8),
``sequences`` covers the appearance-order statistics (Tables 9-10),
``graphs`` counts the Figure 8 ecosystem graph edges, and ``stats`` holds
the shared ECDF / Kolmogorov-Smirnov machinery.
"""

from .stats import Ecdf, ks_two_sample
from . import characterization, graphs, sequences, temporal

__all__ = [
    "Ecdf",
    "ks_two_sample",
    "characterization",
    "graphs",
    "sequences",
    "temporal",
]
