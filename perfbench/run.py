"""End-to-end benchmark of the reproduction's user paths.

    python3 perfbench/run.py [--workload NAME|all] [--seed N]
                             [--seconds S] [--trace 0|1] [--smoke]

Workloads (see ``workloads.py`` for why each exists):

* ``report``     — ``repro report`` on a new cache followed by the
  ``repro report --cache`` re-run over it, one pair per unit;
* ``live``       — ``repro live --skip-refit`` row drains, one
  250-record slice per unit;
* ``serve``      — ``repro serve`` hit traffic, one request per unit.

Each workload runs in fresh single-process interpreters started from
this checkout's ``src/`` with ``n_jobs=1``; ``REPRO_TRACE`` is removed
from their environment.  With ``--trace 0`` the run prints the
end-to-end metrics: ``PARTS`` processes run one after another, each
sets up (its set-up time is one sample of ``setup_s``) and measures
for ``--seconds / PARTS``, and the metrics are medians over their
pooled samples, so no figure rests on one process.  With ``--trace 1``
one process prints the per-layer metrics from span wrappers around
public calls into each layer, plus the tracing overhead.  The last
line of output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.

Scratch files live under ``.perfbench_out/`` in the checkout; each
run's full result (sample counts, quartiles, input facts, environment
stamp) is kept there as JSON, and a traced run's spans as JSON lines.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

from metrics import END_TO_END, PER_LAYER, end_to_end  # noqa: E402

WORKLOAD_NAMES = ("report", "live", "serve")
#: Processes per untraced run; each sets up once and measures a share
#: of the run's seconds.
PARTS = 3
#: Seconds one child process may take before it is killed.
CHILD_TIMEOUT = 150


def git_sha() -> str | None:
    """The checkout's commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def child_env(scratch: Path) -> dict:
    env = dict(os.environ)
    for name in ("REPRO_TRACE", "REPRO_METRICS", "PYTHONPATH"):
        env.pop(name, None)
    env["TMPDIR"] = str(scratch)
    return env


def spawn(workload: str, args, mode: str, seconds: float, part: int,
          scratch: Path, spans: Path | None = None) -> dict:
    """Run one workload process to completion; its JSON result."""
    scratch.mkdir(parents=True)
    command = [sys.executable, str(HERE / "measure.py"),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(seconds), "--mode", mode,
               "--part", str(part), "--scratch", str(scratch)]
    if spans is not None:
        command += ["--spans", str(spans)]
    if args.smoke:
        command.append("--smoke")
    command += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                            env=child_env(scratch), cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{workload} {mode} timed out")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} {mode} exited {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def run_workload(workload: str, args, tmp: Path) -> dict:
    """One workload's result: metrics plus everything recorded about it."""
    if args.trace:
        spans = OUT / f"spans-{workload}-seed{args.seed}.jsonl"
        result = spawn(workload, args, "trace", args.seconds, 0,
                       tmp / "trace", spans)
        values = result["metrics"]
        catalogue = PER_LAYER
    else:
        parts = [spawn(workload, args, "measure", args.seconds / PARTS, k,
                       tmp / f"part{k}") for k in range(PARTS)]
        values, stats = end_to_end(parts)
        result = {key: parts[0][key]
                  for key in ("warmup_digest", "facts", "env")}
        result["facts"]["worlds"] = [w for part in parts
                                     for w in part["facts"]["worlds"]]
        result.update(
            stats=stats,
            attempted=sum(part["attempted"] for part in parts),
            failed=sum(part["failed"] for part in parts),
            failures=[f for part in parts for f in part["failures"]])
        for part in parts[1:]:
            # Same inputs in a fresh process: the same warm-up output.
            result["attempted"] += 1
            if part["warmup_digest"] != result["warmup_digest"]:
                result["failed"] += 1
                result["failures"].append(
                    "warm-up output differs between processes")
        catalogue = END_TO_END
    result["metrics"] = {name: {"value": values[name], "unit": unit}
                         for name, (unit, _) in catalogue.items()}
    return result


def print_table(workload: str, result: dict) -> None:
    stats = result.get("stats", {})
    print(f"== {workload}: {result['attempted']} operations, "
          f"{result['failed']} failed")
    for name, metric in result["metrics"].items():
        line = f"  {name:34s} {metric['value']:14.4f} {metric['unit']}"
        if name in stats and "q1" in stats[name]:
            s = stats[name]
            line += (f"   (n={s['n']}, q1={s['q1']:.4f}, "
                     f"q3={s['q3']:.4f})")
        print(line)
    for failure in result["failures"]:
        print(f"  FAILED: {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", default="all",
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny world, a few units per workload")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    tmp = OUT / f"tmp-{os.getpid()}"
    stamp = {"nproc": os.cpu_count(), "git_sha": git_sha(),
             "seed": args.seed, "seconds": args.seconds,
             "trace": args.trace, "smoke": args.smoke}
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args, tmp / name)
    except (RuntimeError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for name, result in results.items():
        print_table(name, result)
        result["env"] = dict(result["env"], **stamp)
        smoke = "-smoke" if args.smoke else ""
        (OUT / f"{name}-seed{args.seed}-trace{args.trace}{smoke}.json"
         ).write_text(
            json.dumps(result, indent=1, sort_keys=True) + "\n")
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{name}/{metric}": value
                   for name, result in results.items()
                   for metric, value in result["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
