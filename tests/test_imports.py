"""``import repro`` needs only the dependencies ``pyproject.toml`` declares,
and paths that never run a KS test or a likelihood load no SciPy."""

import json
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


def test_warm_influence_bodies_load_no_scipy(tmp_path):
    # The batch /influence view reads the cached `aggregate` stage, so
    # over a cache that a report filled, no filter runs a KS test; the
    # bodies are the ones `influence_payload` computes from the fits.
    from urllib.parse import parse_qs

    from repro.api import Study
    from repro.api.serialize import (
        canonical_bytes,
        filter_influence,
        influence_payload,
    )
    from repro.config import HawkesConfig
    from repro.synthesis.world import WorldConfig

    world = dict(seed=7000, n_stories_alternative=50,
                 n_stories_mainstream=120, n_twitter_users=80,
                 n_reddit_users=60)
    cache = str(tmp_path / "cache")
    study = Study(world=WorldConfig(**world),
                  hawkes=HawkesConfig(gibbs_iterations=12, gibbs_burn_in=4),
                  max_urls=12, cache_dir=cache)
    study.report()
    processes = study.ecosystem.processes
    queries = ["", "category=alternative", "category=mainstream"]
    queries += [f"source={p}" for p in processes]
    queries += [f"destination={p}" for p in processes]
    queries += [f"category=alternative&source={processes[0]}"
                f"&destination={processes[-1]}"]
    full = influence_payload(study.influence())  # runs aggregate_weights
    assert full["percent_change"] is not None
    expected = {}
    for query in queries:
        filters = {name: values[-1]
                   for name, values in parse_qs(query).items()}
        body = filter_influence(dict(full), **filters)
        body["view"] = "batch"
        expected[query] = canonical_bytes(body).decode("utf-8")

    served = tmp_path / "served.json"
    script = (
        "import json\n"
        "from urllib.parse import parse_qs\n"
        "from repro.api import Study, StudyService\n"
        "from repro.config import HawkesConfig\n"
        "from repro.synthesis.world import WorldConfig\n"
        f"study = Study(world=WorldConfig(**{world!r}),\n"
        "              hawkes=HawkesConfig(gibbs_iterations=12,\n"
        "                                  gibbs_burn_in=4),\n"
        f"              max_urls=12, cache_dir={cache!r})\n"
        "service = StudyService(study, port=0)\n"
        "bodies = {}\n"
        f"for query in {queries!r}:\n"
        "    status, _, body, _, _ = service.respond(\n"
        "        '/influence', parse_qs(query))\n"
        "    assert status == 200, (query, status)\n"
        "    bodies[query] = body.decode('utf-8')\n"
        "service.close()\n"
        f"open({str(served)!r}, 'w').write(json.dumps(bodies))\n"
    )
    assert _loaded_after(script, "scipy") == "[]"
    assert json.loads(served.read_text()) == expected
