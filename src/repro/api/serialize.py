"""JSON serializers shared by the CLI (``repro list --json``), the
HTTP query service, and the live engine's artifact publishing.

Everything here emits *canonical* JSON — sorted keys, compact
separators, NaN/inf scrubbed to ``null`` — so the same payload always
serializes to the same bytes.  That is what makes ETag / 304 handling
and the byte-identity guarantees of the service trivially correct.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Any, Callable

import numpy as np

from ..core.influence import (
    InfluenceResult,
    WeightAggregate,
    aggregate_weights,
)
from ..news.domains import NewsCategory
from ..claims import BENCH_FILE, EXPERIMENTS, Experiment

CONTENT_TYPE_JSON = "application/json; charset=utf-8"


def clean(obj: Any) -> Any:
    """Recursively coerce ``obj`` into JSON-encodable plain data."""
    if isinstance(obj, dict):
        return {str(key): clean(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [clean(item) for item in obj]
    if isinstance(obj, np.ndarray):
        return clean(obj.tolist())
    if isinstance(obj, (np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, (float, np.floating)):
        value = float(obj)
        return value if math.isfinite(value) else None
    if isinstance(obj, NewsCategory):
        return obj.value
    return obj


def canonical_bytes(payload: Any) -> bytes:
    """Encode a payload to canonical (byte-stable) JSON."""
    return json.dumps(clean(payload), sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def payload_key(payload: Any) -> str:
    """Content key of a JSON payload: SHA-256 of its canonical bytes."""
    return hashlib.sha256(canonical_bytes(payload)).hexdigest()


# ---------------------------------------------------------------------------
# Experiment index (CLI `list --json` and GET /experiments)
# ---------------------------------------------------------------------------

def experiment_payload(experiment: Experiment) -> dict:
    return {
        "id": experiment.exp_id,
        "title": experiment.title,
        "paper_values": list(experiment.paper_values),
        "shape_checks": [claim.text for claim in experiment.claims],
        "artifact": experiment.artifact,
        "bench": BENCH_FILE,
        "modules": list(experiment.modules),
    }


def experiments_payload(experiments=EXPERIMENTS) -> dict:
    return {
        "count": len(experiments),
        "experiments": [experiment_payload(e) for e in experiments],
    }


# ---------------------------------------------------------------------------
# Scenario index (CLI `scenarios list --json` and GET /scenarios)
# ---------------------------------------------------------------------------

def scenario_payload(scenario) -> dict:
    """One scenario preset as JSON-ready plain data."""
    eco = scenario.ecosystem
    return {
        "name": scenario.name,
        "id": scenario.scenario_id,
        "version": scenario.version,
        "title": scenario.title,
        "description": scenario.description,
        "k": scenario.k,
        "processes": list(eco.processes),
        "platforms": [spec.key for spec in eco.platforms],
        "slices": list(eco.slices),
        "seed": scenario.world.seed,
    }


def scenarios_payload(scenarios=None) -> dict:
    """The scenario index (every registered preset, sorted by name)."""
    if scenarios is None:
        from ..scenarios import all_scenarios
        scenarios = all_scenarios()
    return {
        "count": len(scenarios),
        "scenarios": [scenario_payload(s) for s in scenarios],
    }


# ---------------------------------------------------------------------------
# Influence payloads (GET /influence and live publishing)
# ---------------------------------------------------------------------------

def influence_payload(
        result: InfluenceResult,
        aggregate: Callable[[], WeightAggregate] | None = None) -> dict:
    """Everything Figures 10-11 report, as one JSON-ready payload.

    Used identically for batch fits (the Study `fits` stage) and the
    live engine's windowed refits, so the service serves both through
    one code path.  ``aggregate`` returns the Figure 10 aggregation of
    ``result``: the service passes the Study's cached ``aggregate``
    stage, so its 64 KS tests run once per fits key; by default it is
    computed here with :func:`aggregate_weights`.
    """
    from ..core.influence import influence_percentages

    categories: dict[str, dict] = {}
    for category in NewsCategory:
        fits = result.of_category(category)
        stack = result.weight_stack(category)
        categories[category.value] = {
            "n_urls": len(fits),
            "mean_weights": (stack.mean(axis=0).tolist()
                             if len(fits) else None),
            "influence_pct": influence_percentages(
                result, category).tolist(),
        }
    percent_change = None
    significant_cells = None
    try:
        weights = (aggregate() if aggregate is not None
                   else aggregate_weights(result))
    except ValueError:
        pass  # one category empty: means stay per-category, no contrast
    else:
        percent_change = weights.percent_change.tolist()
        significant_cells = int((weights.significance_stars() != "").sum())
    return clean({
        "processes": list(result.processes),
        "n_urls": {category.value: len(result.of_category(category))
                   for category in NewsCategory},
        "categories": categories,
        "percent_change": percent_change,
        "ks_significant_cells": significant_cells,
    })


def filter_influence(payload: dict, category: str | None = None,
                     source: str | None = None,
                     destination: str | None = None) -> dict:
    """Reduce a full influence payload to the matching matrix cells.

    With no filters the payload is returned untouched; any filter
    switches to a flat ``cells`` list (one entry per retained
    ``source -> destination`` pair per category).  Raises ``KeyError``
    for unknown category or process names.
    """
    if category is None and source is None and destination is None:
        return payload
    processes = payload["processes"]
    categories = ([category] if category is not None
                  else sorted(payload["categories"]))
    for name in categories:
        if name not in payload["categories"]:
            raise KeyError(f"unknown category {name!r}")
    for process in (source, destination):
        if process is not None and process not in processes:
            raise KeyError(f"unknown process {process!r}")
    cells = []
    for name in categories:
        block = payload["categories"][name]
        means = block["mean_weights"]
        pct = block["influence_pct"]
        for i, src in enumerate(processes):
            if source is not None and src != source:
                continue
            for j, dst in enumerate(processes):
                if destination is not None and dst != destination:
                    continue
                cells.append({
                    "category": name,
                    "source": src,
                    "destination": dst,
                    "mean_weight": (means[i][j]
                                    if means is not None else None),
                    "influence_pct": pct[i][j] if pct is not None else None,
                })
    return {
        "processes": processes,
        "filters": {"category": category, "source": source,
                    "destination": destination},
        "cells": cells,
    }
