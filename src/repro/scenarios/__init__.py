"""Scenario registry: named, versioned presets over K-platform ecosystems.

A :class:`Scenario` bundles a :class:`~repro.synthesis.world.WorldConfig`
(volumes, bot mix, extra platforms), an
:class:`~repro.platforms.registry.Ecosystem` (the K platforms, the
influence-process axes, community routing, and the corpus selection
rule) and a :class:`~repro.config.HawkesConfig`.  The built-in presets:

============== ==== =====================================================
name             K  what it is
============== ==== =====================================================
minimal          8  tiny paper-shaped world for CI smokes and benchmarks
web-centipede    8  the paper; bit-identical to bare ``Study()`` defaults
gab              4  paper triple + a Gab-style platform, platform-level
                    processes (Reddit, /pol/, Twitter, Gab)
election-week    8  Nov 2016 election-week world (the example study)
bot-amplification 8 bot-heavy Twitter population for counterfactuals
============== ==== =====================================================

Use them through the session surface::

    from repro import Study

    study = Study(scenario="gab")
    result = study.influence()        # 4x4 influence matrices
    print(study.table(1).render())    # Gab row included

or from the CLI: ``repro scenarios list`` / ``repro scenarios run gab``.
Scenario name and version participate in artifact keys, so presets
cache independently of each other and of bare ``Study()`` runs.
"""

from .registry import (
    Scenario,
    all_scenarios,
    get_scenario,
    register_scenario,
    scenario_names,
)
from . import presets
from .presets import GAB_SPEC

__all__ = [
    "GAB_SPEC",
    "Scenario",
    "all_scenarios",
    "get_scenario",
    "presets",
    "register_scenario",
    "scenario_names",
]
