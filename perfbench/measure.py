"""One workload in one fresh process: the part ``run.py`` spawns.

    python3 perfbench/measure.py --workload NAME --seed N --seconds S \
        --mode measure|trace --part K --scratch DIR --spawned-at T [--smoke]

Set-up is everything from process start (``--spawned-at``, a
``time.monotonic()`` reading the parent took just before spawning) to
the first timed unit: imports, input preparation and one warm-up unit.
``measure`` then repeats units for ``S`` seconds and reports the raw
samples, which ``run.py`` pools over the processes of a run; part ``K``
of a run numbers its units from ``100 * K + 1``, so each part draws
its own worlds.  ``trace`` measures half the time untraced, installs
the span wrappers, measures the other half and reports the per-layer
metrics.  The result is one JSON line on stdout.
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import metrics  # noqa: E402  (perfbench/ is this script's directory)
from tracer import Tracer  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("measure", "trace"),
                        required=True)
    parser.add_argument("--part", type=int, default=0)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--spans", default=None,
                        help="trace mode: write the spans here (JSONL)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and a few units, for tests")
    args = parser.parse_args(argv)

    import_start = time.perf_counter()
    import numpy
    import repro
    import repro.api
    import repro.live
    import repro.pipeline
    import repro.synthesis.world  # noqa: F401
    import_s = time.perf_counter() - import_start
    if Path(repro.__file__).resolve().parents[1] != ROOT / "src":
        print(f"repro imported from {repro.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, Path(args.scratch),
                                        smoke=args.smoke)
    workload.prepare()
    workload.unit(0, record=False)
    setup_s = time.monotonic() - args.spawned_at

    index = 100 * args.part + 1

    def run_for(seconds: float) -> None:
        """Units until ``seconds`` have passed; two units in smoke runs."""
        nonlocal index
        deadline = time.perf_counter() + seconds
        for count in itertools.count(1):
            workload.unit(index, record=True)
            index += 1
            if (count == 2 if args.smoke
                    else time.perf_counter() >= deadline):
                break

    result: dict = {}
    if args.mode == "measure":
        run_for(args.seconds)
        groups = workload.results.groups
        result.update(
            latency_ms=[x for g in groups for x in g.latency_ms],
            work=[[g.items, g.seconds] for g in groups],
            peak_rss_mb=resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024)
    else:
        run_for(args.seconds / 2)
        untraced = metrics.median(
            [x for g in workload.results.groups for x in g.latency_ms])
        workload.results.groups.clear()
        tracer = Tracer(hot=metrics.HOT_SPANS)
        workload.install_tracing(tracer)
        tracer.start_gc_timing()
        run_for(args.seconds / 2)
        tracer.stop_gc_timing()
        values = metrics.per_layer(workload.results.groups, tracer, untraced,
                                   import_s, workload.layer_extras())
        result.update(metrics=values, untraced_latency_ms=untraced,
                      spans=len(tracer.spans))
        if args.spans:
            tracer.dump(args.spans)
    workload.finish()
    res = workload.results
    result.update(
        setup_s=setup_s, warmup_digest=workload.warmup_digest,
        attempted=res.attempted, failed=res.failed,
        failures=res.failures,
        facts=workload.facts(),
        env={"python": sys.version.split()[0], "numpy": numpy.__version__})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
