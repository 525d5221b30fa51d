"""The scenario dataclass and the named, versioned preset registry."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import HawkesConfig
from ..platforms.registry import Ecosystem
from ..synthesis.world import WorldConfig


@dataclass(frozen=True)
class Scenario:
    """A named, versioned preset bundling everything one run needs.

    A scenario fixes the WorldConfig (volumes, bot mix, extra
    platforms), the ecosystem (K platforms, influence processes,
    community routing, corpus selection rule) and the HawkesConfig of
    its Gibbs fits.  ``Study(scenario=...)`` resolves its defaults from
    here, and the scenario id participates in artifact keys so presets
    cache independently.
    """

    name: str
    version: int
    title: str
    description: str
    world: WorldConfig
    ecosystem: Ecosystem
    hawkes: HawkesConfig = field(default_factory=HawkesConfig)

    @property
    def scenario_id(self) -> str:
        """Stable identity used in artifact keys, e.g. ``gab@v1``."""
        return f"{self.name}@v{self.version}"

    @property
    def k(self) -> int:
        """Number of influence processes (the K of the KxK matrix)."""
        return len(self.ecosystem.processes)


_REGISTRY: dict[str, Scenario] = {}


def register_scenario(scenario: Scenario, *, replace: bool = False) -> Scenario:
    """Register a scenario under its name; refuses silent clobbers."""
    if scenario.name in _REGISTRY and not replace:
        existing = _REGISTRY[scenario.name]
        if existing != scenario:
            raise ValueError(
                f"scenario {scenario.name!r} already registered "
                f"(as {existing.scenario_id}); pass replace=True")
        return existing
    _REGISTRY[scenario.name] = scenario
    return scenario


def get_scenario(name: str | Scenario) -> Scenario:
    """Look a scenario up by name (``gab``) or id (``gab@v1``)."""
    if isinstance(name, Scenario):
        return name
    base, _, version = name.partition("@")
    scenario = _REGISTRY.get(base)
    if scenario is None:
        known = ", ".join(sorted(_REGISTRY)) or "(none)"
        raise KeyError(f"unknown scenario {name!r}; registered: {known}")
    if version and scenario.scenario_id != name:
        raise KeyError(
            f"scenario {base!r} is registered as {scenario.scenario_id}, "
            f"not {name!r}")
    return scenario


def scenario_names() -> tuple[str, ...]:
    """All registered scenario names, sorted."""
    return tuple(sorted(_REGISTRY))


def all_scenarios() -> tuple[Scenario, ...]:
    """All registered scenarios, sorted by name."""
    return tuple(_REGISTRY[name] for name in scenario_names())
