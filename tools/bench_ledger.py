"""Fold ``perfbench`` results into the committed perf ledger.

    python tools/bench_ledger.py [--checkout DIR] [--out DIR]

``perfbench/run.py`` keeps each run's full result in the checkout's
gitignored ``.perfbench_out/<workload>-seed<N>-trace<T>.json`` (smoke
runs, named ``...-smoke.json``, are not folded).  This script appends
those results to ``BENCH_report.json``, ``BENCH_live.json`` and
``BENCH_serve.json`` at the repo root, so the perf history survives
from one change to the next.

Each ledger file holds one entry per git sha.  An entry lists its runs:
for an untraced run, the median, quartiles and sample count of every
end-to-end metric; for a traced run, the per-layer metrics and the
latency of its untraced half (a layer's share of the unit is its time
over that latency plus ``trace.overhead_ms``); for both, the
attempted/failed operation counts and the environment stamp.  The
entry's ``median`` is the median of its runs' medians, per metric.

The sha is the one ``perfbench`` stamped on the run.  A checkout whose
``src/`` differs from its HEAD is measured code that has no commit yet;
its runs are filed under ``<sha>-dirty``, the ``git describe --dirty``
convention.  Dirtiness is read when the results are folded, so fold
right after each run; ``perfbench`` overwrites the file of a workload,
seed and trace mode on every run anyway.  A result already in the
ledger, under any sha, is skipped: alternated parent/child runs are
folded one run at a time from each checkout, and a stale result left
in ``.perfbench_out/`` after a commit is not filed a second time under
the new, clean sha.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("report", "live", "serve")
RESULT_NAME = re.compile(
    r"^(?P<workload>[a-z]+)-seed(?P<seed>\d+)-trace(?P<trace>[01])\.json$")


def source_is_dirty(checkout: Path) -> bool:
    """Whether ``checkout/src`` differs from the checkout's HEAD."""
    proc = subprocess.run(
        ["git", "-C", str(checkout), "diff", "--quiet", "HEAD", "--",
         "src"], capture_output=True)
    return proc.returncode == 1


def run_record(result: dict, trace: int) -> dict:
    """The ledger's view of one ``perfbench`` result."""
    env = result["env"]
    record = {"seed": env["seed"], "seconds": env["seconds"],
              "trace": trace, "attempted": result["attempted"],
              "failed": result["failed"], "env": env}
    if trace:
        record["layers"] = result["metrics"]
        record["untraced_latency_ms"] = result["untraced_latency_ms"]
    else:
        record["metrics"] = {
            name: dict(result["stats"][name], unit=metric["unit"])
            for name, metric in result["metrics"].items()}
    return record


def summarize(runs: list[dict]) -> dict:
    """Median of the untraced runs' medians, per end-to-end metric."""
    medians: dict[str, list[float]] = {}
    for run in runs:
        for name, stats in run.get("metrics", {}).items():
            medians.setdefault(name, []).append(stats["median"])
    return {name: statistics.median(values)
            for name, values in sorted(medians.items())}


def fold(ledger: dict, sha: str, record: dict) -> bool:
    """Add ``record`` to ``sha``'s entry; False if the ledger already
    holds it under any sha."""
    entries = ledger.setdefault("entries", [])
    if any(record in e["runs"] for e in entries):
        return False
    entry = next((e for e in entries if e["sha"] == sha), None)
    if entry is None:
        entry = {"sha": sha, "runs": []}
        entries.append(entry)
    entry["runs"].append(record)
    entry["median"] = summarize(entry["runs"])
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--checkout", type=Path, default=ROOT,
                        help="checkout whose .perfbench_out/ to fold")
    parser.add_argument("--out", type=Path, default=ROOT,
                        help="directory of the BENCH_<workload>.json files")
    args = parser.parse_args(argv)

    results = sorted((args.checkout / ".perfbench_out").glob("*.json"))
    suffix = "-dirty" if source_is_dirty(args.checkout) else ""
    folded = 0
    for path in results:
        match = RESULT_NAME.match(path.name)
        if match is None or match["workload"] not in WORKLOADS:
            continue
        result = json.loads(path.read_text())
        sha = result["env"]["git_sha"] + suffix
        ledger_path = args.out / f"BENCH_{match['workload']}.json"
        ledger = (json.loads(ledger_path.read_text())
                  if ledger_path.exists()
                  else {"workload": match["workload"], "entries": []})
        if fold(ledger, sha, run_record(result, int(match["trace"]))):
            ledger_path.write_text(
                json.dumps(ledger, indent=1, sort_keys=True) + "\n")
            folded += 1
            print(f"{path.name} -> {ledger_path.name} [{sha}]")
    print(f"{folded} new run(s) folded")
    return 0


if __name__ == "__main__":
    sys.exit(main())
