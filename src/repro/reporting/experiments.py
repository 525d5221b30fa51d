"""EXPERIMENTS.md generation: paper-reported vs measured, per experiment.

Reads the artifacts the benchmark harness writes under ``results/`` and
the experiment and claim registry in :mod:`repro.claims`, and emits a
single markdown report.  Regenerate with::

    python -m repro experiments
"""

from __future__ import annotations

from pathlib import Path

from ..claims import BENCH_FILE, EXPERIMENTS, Experiment

HEADER = """\
# EXPERIMENTS — paper vs. measured

Reproduction of every table and figure in the evaluation of
*The Web Centipede* (Zannettou et al., IMC 2017).

**How to read this file.**  The original datasets (1% Twitter stream,
Pushshift dumps, /pol/ crawl) are no longer obtainable, so all measured
numbers come from the paper-calibrated synthetic world described in
DESIGN.md — the ground truth of the Section-5 experiment *is* the
paper's own Figure-10/Table-11 parameters.  Absolute counts therefore
scale with the configured world size (~1/25 of the paper's corpus by
default); what must match is the *shape*: who wins, by roughly what
factor, and where crossovers fall.  Every claim below is one predicate
in `repro.claims`: `python -m repro validate` checks the claims that
apply to a scenario, and `benchmarks/bench_claims.py` asserts all of
them on the benchmark world.

Regenerate all artifacts with::

    pytest benchmarks/ --benchmark-only

"""


def render_experiment(experiment: Experiment,
                      results_dir: Path) -> str:
    lines = [f"## {experiment.exp_id} — {experiment.title}", ""]
    lines.append(f"*Benchmark:* `{BENCH_FILE} -k {experiment.slug}`  ")
    lines.append("*Modules:* " + ", ".join(
        f"`{m}`" for m in experiment.modules))
    lines.append("")
    lines.append("**Paper reports:**")
    for value in experiment.paper_values:
        lines.append(f"- {value}")
    lines.append("")
    lines.append("**Claims (checked by `repro validate`, asserted by the "
                 "benchmark):**")
    for claim in experiment.claims:
        lines.append(f"- `{claim.claim_id}`: {claim.text}")
    lines.append("")
    artifact = results_dir / experiment.artifact
    if artifact.exists():
        content = artifact.read_text(encoding="utf-8").rstrip()
        lines.append(f"**Measured** (`results/{experiment.artifact}`):")
        lines.append("")
        lines.append("```")
        lines.append(content)
        lines.append("```")
    else:
        lines.append(f"**Measured:** artifact `results/"
                     f"{experiment.artifact}` not generated yet — run "
                     "the benchmark above.")
    lines.append("")
    return "\n".join(lines)


#: Ablation/extension artifacts beyond the paper's own evaluation.
EXTENSIONS: tuple[tuple[str, str, str], ...] = (
    ("Excitation window", "ablation_maxlag.txt",
     "the paper's unshown 6/12/24/48 h 'similar results' claim, checked"),
    ("Bin width", "ablation_binsize.txt",
     "Delta t in {30 s, 1 min, 5 min} plus the events-alone-in-bin "
     "statistic (paper: 92%)"),
    ("Gap trimming", "ablation_gap_trim.txt",
     "sensitivity to the 10% shortest-URL drop (0/10/20%)"),
    ("Estimators", "ablation_estimators.txt",
     "Gibbs vs continuous-time EM on identical URLs"),
    ("Bot removal", "ablation_bots.txt",
     "the counterfactual the paper declined (Section 3)"),
    ("MCMC diagnostics", "diagnostics.txt",
     "Geweke/ESS convergence and posterior predictive checks the paper "
     "never reported"),
)


def render_extension(name: str, artifact: str, note: str,
                     results_dir: Path) -> str:
    lines = [f"### {name}", "", note, ""]
    path = results_dir / artifact
    if path.exists():
        lines.append("```")
        lines.append(path.read_text(encoding="utf-8").rstrip())
        lines.append("```")
    else:
        lines.append(f"*artifact `results/{artifact}` not generated "
                     "yet — run the ablation benchmarks*")
    lines.append("")
    return "\n".join(lines)


def generate_markdown(results_dir: str | Path = "results") -> str:
    results_dir = Path(results_dir)
    sections = [HEADER]
    sections.append("## Index\n")
    sections.append("| Experiment | Title | Claims | Artifact |")
    sections.append("|---|---|---|---|")
    for experiment in EXPERIMENTS:
        sections.append(
            f"| {experiment.exp_id} | {experiment.title} | "
            f"{len(experiment.claims)} | `{experiment.artifact}` |")
    sections.append("")
    for experiment in EXPERIMENTS:
        sections.append(render_experiment(experiment, results_dir))
    sections.append("## Extensions beyond the paper\n")
    sections.append(
        "Ablations over the Section-5 design choices and quality gates "
        "the paper did not report (see `benchmarks/bench_ablation_*.py` "
        "and `benchmarks/bench_diagnostics.py`).\n")
    for name, artifact, note in EXTENSIONS:
        sections.append(render_extension(name, artifact, note,
                                         results_dir))
    return "\n".join(sections)


def write_experiments_md(path: str | Path = "EXPERIMENTS.md",
                         results_dir: str | Path = "results") -> Path:
    path = Path(path)
    path.write_text(generate_markdown(results_dir), encoding="utf-8")
    return path
