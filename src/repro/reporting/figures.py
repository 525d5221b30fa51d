"""CSV figure-series writers.

Each figure is exported as one CSV whose columns are the plotted
series; any CSV reader or plotting tool can regenerate the picture.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Mapping, Sequence


def write_series(path: str | Path,
                 columns: Mapping[str, Sequence]) -> Path:
    """Write named columns (possibly ragged) to a CSV file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    names = list(columns)
    arrays = [list(columns[name]) for name in names]
    depth = max((len(a) for a in arrays), default=0)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(names)
        for i in range(depth):
            writer.writerow([
                arrays[j][i] if i < len(arrays[j]) else ""
                for j in range(len(names))
            ])
    return path
