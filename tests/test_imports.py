"""``import repro`` needs only the dependencies ``pyproject.toml`` declares,
and paths that never run a KS test or a likelihood load no SciPy."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _loaded_after(script: str, package: str) -> str:
    """Sorted names of ``package``'s modules once ``script`` has run."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    script = (f"import sys\n{script}"
              "print(sorted(m for m in sys.modules\n"
              f"             if m.split('.')[0] == {package!r}))\n")
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    return proc.stdout.strip().splitlines()[-1]


def test_import_does_not_load_networkx():
    assert _loaded_after("import repro, repro.cli\n", "networkx") == "[]"


def test_import_does_not_load_scipy():
    # SciPy is imported only where a KS test, a chi-square test or
    # log-factorials are computed.
    assert _loaded_after("import repro, repro.cli\n", "scipy") == "[]"


def test_live_drain_without_refit_loads_no_scipy(tmp_path):
    script = (
        "from repro.live import EventBus, LiveEngine\n"
        "from repro.pipeline import stream_source_factories\n"
        "from repro.synthesis.world import WorldConfig, build_world\n"
        "world = build_world(WorldConfig(\n"
        "    seed=7000, n_stories_alternative=50, n_stories_mainstream=120,\n"
        "    n_twitter_users=80, n_reddit_users=60))\n"
        "bus = EventBus()\n"
        "for name, factory in stream_source_factories(world,\n"
        "                                             stream_seed=7000):\n"
        "    bus.add_source(name, factory())\n"
        "engine = LiveEngine(\n"
        f"    bus, checkpoint_path={str(tmp_path / 'checkpoint.json')!r},\n"
        "    checkpoint_every=400, summary_every=100)\n"
        "print(engine.run())\n"
    )
    assert _loaded_after(script, "scipy") == "[]"
