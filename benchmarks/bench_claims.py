"""Every paper claim, asserted on the medium benchmark world.

One case per experiment of the paper's evaluation (``-k table09``,
``-k fig10``; ``python -m repro reproduce "Table 9"`` runs one).  Each
case times the experiment's claims from :mod:`repro.claims` on
``bench_study``, writes the experiment's artifact under ``results/`` for
EXPERIMENTS.md (tables rendered from ``Study.table(n)``, figures as
summary text plus CSV series, then each claim's outcome), and asserts
that every claim holds.
"""

import numpy as np
import pytest

from repro import claims
from repro.analysis import graphs
from repro.claims import ALT, EXPERIMENTS, MAIN
from repro.core.hawkes.simulation import expected_total_events
from repro.reporting import render_matrix_cells, render_table, write_series
from _helpers import RESULTS_DIR


def _ecdf_figure(cdfs: dict, csv_name: str, at: float) -> str:
    """Log-grid CSV series of every non-empty ECDF; one summary line each."""
    columns, lines = {}, []
    for key, ecdf in cdfs.items():
        if ecdf is None:
            continue
        label = "_".join(getattr(part, "value", part) for part in key)
        xs, ys = ecdf.on_log_grid(48)
        columns[f"{label}_x"] = list(np.round(xs, 4))
        columns[f"{label}_F"] = list(np.round(ys, 4))
        lines.append(f"{label}: n={ecdf.n} median={ecdf.median:.4g} "
                     f"F({at:g})={ecdf(at):.2f} max={ecdf.values.max():.4g}")
    write_series(RESULTS_DIR / csv_name, columns)
    return "\n".join(lines)


def _fig02(study):
    return "\n\n".join(render_table(
        ["Domain", "Total", "/pol/", "Reddit6", "Twitter"],
        [[s.domain, s.total] + [f"{f:.2f}" for f in s.fractions.values()]
         for s in claims.domain_fractions(study.data, category)],
        title=f"Figure 2 — {category.value} domains")
        for category in (ALT, MAIN))


def _fig03(study):
    columns, lines = {}, []
    grid = np.linspace(0, 1, 41)
    for name, users in claims.user_fractions(study.data).items():
        lines.append(f"{name}: users={users.n_users} "
                     f"main-only={users.pct_mainstream_only:.1f}% "
                     f"alt-only={users.pct_alternative_only:.1f}%")
        for label, ecdf in (("all", users.all_users),
                            ("mixed", users.mixed_users)):
            if ecdf is not None:
                columns[f"{name}_{label}_x"] = list(grid)
                columns[f"{name}_{label}_F"] = list(np.round(ecdf(grid), 4))
    write_series(RESULTS_DIR / "fig03_user_fraction.csv", columns)
    return "\n".join(lines)


def _fig04(study):
    series = claims.daily_series(study.data)
    columns, lines = {"day": list(range(series["twitter"].n_days))}, []
    for name, daily in series.items():
        alt = daily.normalized(ALT)
        columns[f"{name}_alt"] = list(np.round(alt, 5))
        columns[f"{name}_main"] = list(np.round(daily.normalized(MAIN), 5))
        columns[f"{name}_fraction"] = list(
            np.round(daily.alternative_fraction(), 4))
        lines.append(f"{name}: mean_alt={alt.mean():.4f} "
                     f"election_day={alt[claims.ELECTION_DAY]:.4f}")
    write_series(RESULTS_DIR / "fig04_daily_occurrence.csv", columns)
    return "\n".join(lines)


def _fig07(study):
    cdfs = {(pair, category, side): getattr(result, side)
            for (pair, category), result
            in claims.cross_platform_pairs(study.data).items()
            for side in ("a_first", "b_first")}
    return _ecdf_figure(cdfs, "fig07_cross_platform.csv", 86_400)


def _fig08(study):
    platforms = claims.GRAPH_PLATFORMS
    sections = []
    for category in (ALT, MAIN):
        graph = claims.ecosystem_graph(study.data, category)
        rows = graphs.domain_first_platform_shares(graph, platforms)
        sections.append(render_table(
            ["Domain", "URLs"] + [f"{p} first" for p in platforms],
            [[r.domain, r.total] + [f"{r.shares[p]:.2f}" for p in platforms]
             for r in rows[:20]],
            title=f"Figure 8 ({category.value}) — first-appearance shares"))
        hops = graphs.platform_hop_weights(graph, platforms)
        sections.append("first-hop edges: " + ", ".join(
            f"{a}→{b}: {w}" for (a, b), w in sorted(hops.items())))
    return "\n\n".join(sections)


def _fig09(study):
    params, events = claims.hawkes_demo()
    counts = events.events_per_process()
    expected = expected_total_events(params, 10_000)
    return render_table(
        ["Process", "Simulated events", "Analytic expectation"],
        [[name, int(counts[i]), f"{expected[i]:.1f}"]
         for i, name in enumerate(claims.DEMO_PROCESSES)],
        title="Figure 9 — three-process Hawkes cascade demo")


def _matrix(study, title: str, cell) -> str:
    """A K x K figure: ``cell(i, j)`` gives each cell's lines."""
    processes = study.ecosystem.processes
    k = len(processes)
    return render_matrix_cells(
        processes, [[cell(i, j) for j in range(k)] for i in range(k)],
        title=f"{title} (source rows, destination columns)")


def _fig10(study):
    agg = study.aggregate()
    stars = agg.significance_stars()
    return _matrix(study, "Figure 10 — mean weights", lambda i, j: [
        f"A: {agg.mean_alternative[i, j]:.4f}",
        f"M: {agg.mean_mainstream[i, j]:.4f}",
        f"{agg.percent_change[i, j]:+.1f}% {stars[i, j]}".strip()])


def _fig11(study):
    alt, main = study.percentages(ALT), study.percentages(MAIN)
    return _matrix(
        study, "Figure 11 — estimated percentage of events caused",
        lambda i, j: [f"A: {alt[i, j]:.2f}%", f"M: {main[i, j]:.2f}%",
                      f"{alt[i, j] - main[i, j]:+.2f}"])


FIGURES = {
    "Figure 1": lambda study: _ecdf_figure(
        claims.appearance_cdfs(study.data), "fig01_url_appearance.csv", 1),
    "Figure 2": _fig02,
    "Figure 3": _fig03,
    "Figure 4": _fig04,
    "Figure 5": lambda study: _ecdf_figure(
        claims.repost_lag_cdfs(study.data), "fig05_repost_lags.csv", 24),
    "Figure 6": lambda study: _ecdf_figure(
        claims.interarrival_cdfs(study.data), "fig06_interarrival.csv", 3600),
    "Figure 7": _fig07,
    "Figure 8": _fig08,
    "Figure 9": _fig09,
    "Figure 10": _fig10,
    "Figure 11": _fig11,
}


def _artifact(experiment, study) -> str:
    if experiment.exp_id in FIGURES:
        return FIGURES[experiment.exp_id](study)
    return study.table(int(experiment.exp_id.split()[1])).render()


@pytest.mark.parametrize("experiment", EXPERIMENTS, ids=lambda e: e.slug)
def test_claims(benchmark, bench_study, save_result, experiment):
    text = _artifact(experiment, bench_study)  # also warms the stages
    outcomes = benchmark.pedantic(
        lambda: [claim.check(bench_study) for claim in experiment.claims],
        rounds=1)
    lines = [f"[{'PASS' if passed else 'FAIL'}] {claim.claim_id}: {detail}"
             for claim, (passed, detail) in zip(experiment.claims, outcomes)]
    save_result(experiment.artifact, text + "\n\nClaims:\n" + "\n".join(lines))
    assert not any(line.startswith("[FAIL]") for line in lines), lines
