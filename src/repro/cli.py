"""Command-line interface.

Every analysis command is a thin adapter over :class:`repro.Study`
(:mod:`repro.api`): build a session from the flags, ask it for the
products, print.  ``--cache DIR`` shares the session's artifact store
across commands and processes, so e.g. ``repro report`` after
``repro validate --cache .repro-cache`` never regenerates the world.

Usage::

    python -m repro world --seed 7 --out data/           # generate + crawl
    python -m repro live --seed 7                        # streaming engine
    python -m repro serve --port 8731                    # HTTP query service
    python -m repro reproduce "Table 4"                  # one experiment
    python -m repro experiments                          # EXPERIMENTS.md
    python -m repro list [--json]                        # experiment index
    python -m repro scenarios list [--json]              # scenario presets
    python -m repro scenarios run gab                    # one preset, KxK
    python -m repro stats --cache DIR --trace FILE       # run metrics

``report``, ``validate``, ``serve``, and ``live`` also accept
``--scenario NAME``, which swaps in a registered preset's world,
ecosystem, and fit settings (the world flags are then ignored).

``-v`` / ``-vv`` (before or after the subcommand) raises the stdlib
logging level, surfacing live-engine summaries and HTTP access logs
that are suppressed by default.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from .claims import BENCH_FILE, EXPERIMENTS, by_id


def _configure_logging(verbosity: int) -> None:
    """Map ``-v`` counts to stdlib logging levels (WARNING by default).

    ``repro.*`` loggers (live summaries, HTTP access lines) emit at
    INFO/DEBUG, so without ``-v`` the tools stay as quiet as before.
    """
    level = (logging.WARNING if verbosity <= 0
             else logging.INFO if verbosity == 1
             else logging.DEBUG)
    logging.basicConfig(
        level=level,
        format="%(asctime)s %(name)s %(levelname)s %(message)s")


def _add_world_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--stories-alt", type=int, default=1100)
    parser.add_argument("--stories-main", type=int, default=3300)
    parser.add_argument("--twitter-users", type=int, default=1500)
    parser.add_argument("--reddit-users", type=int, default=1200)


def _add_jobs_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for Hawkes corpus fitting (-1 = all "
             "cores); results are identical for any value")


def _add_scenario_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scenario", default=None, metavar="NAME",
        help="run a registered scenario preset (see `repro scenarios "
             "list`); the world and Hawkes flags are ignored when set")


def _add_cache_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache", default=None, metavar="DIR",
        help="artifact-cache directory; identical configurations reuse "
             "each other's stage artifacts across processes")


def _add_verbose_arg(parser: argparse.ArgumentParser,
                     suppress_default: bool = False) -> None:
    # Subparsers get default=SUPPRESS so `repro -v live` survives: an
    # absent subcommand flag then leaves the main parser's value alone
    # instead of resetting it to 0.
    parser.add_argument(
        "-v", "--verbose", action="count",
        default=argparse.SUPPRESS if suppress_default else 0,
        help="log progress via stdlib logging (-v INFO, -vv DEBUG)")


def _publish_metrics(study) -> None:
    """Publish this process's metrics snapshot into the study's store.

    Lets ``repro stats --cache DIR`` report on the run afterwards; a
    no-op for in-memory stores (nothing would outlive the process) or
    with metrics disabled.
    """
    from .obs import get_registry, publish_snapshot
    registry = get_registry()
    if study.store.root is not None and registry.enabled:
        publish_snapshot(study.store, registry.snapshot())


def _world_config(args: argparse.Namespace):
    from .synthesis import WorldConfig
    return WorldConfig(
        seed=args.seed,
        n_stories_alternative=args.stories_alt,
        n_stories_mainstream=args.stories_main,
        n_twitter_users=args.twitter_users,
        n_reddit_users=args.reddit_users,
    )


def _study(args: argparse.Namespace, **overrides):
    """The Study session every analysis command adapts over."""
    from .api import Study
    from .config import HawkesConfig
    kwargs = {
        "max_urls": getattr(args, "max_urls", None),
        "n_jobs": getattr(args, "jobs", 1),
        "cache_dir": getattr(args, "cache", None),
    }
    scenario = getattr(args, "scenario", None)
    if scenario is not None:
        # A preset bundles world + ecosystem + Hawkes config + method;
        # the generic world/seed flags don't apply on this path.
        kwargs["scenario"] = scenario
    else:
        kwargs.update({
            "world": _world_config(args),
            "hawkes": HawkesConfig(gibbs_iterations=30, gibbs_burn_in=10),
            "fit_seed": args.seed,
        })
    kwargs.update(overrides)
    return Study(**kwargs)


def cmd_world(args: argparse.Namespace) -> int:
    """Generate a world, crawl it, and save the datasets as JSONL."""
    data = _study(args).data
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    data.twitter.save_jsonl(out / "twitter.jsonl")
    data.reddit.save_jsonl(out / "reddit.jsonl")
    data.fourchan.save_jsonl(out / "fourchan.jsonl")
    print(f"wrote {len(data.twitter)} twitter, {len(data.reddit)} reddit, "
          f"{len(data.fourchan)} 4chan records to {out}/")
    return 0


def cmd_live(args: argparse.Namespace) -> int:
    """Stream a synthetic world (or saved JSONL) through the live engine."""
    from .live import (
        EventBus,
        LiveEngine,
        RefitPolicy,
        WindowedHawkesRefitter,
        jsonl_source,
    )
    from .news.domains import NewsCategory
    from .platforms.registry import PAPER_ECOSYSTEM
    from .reporting import render_table

    if args.resume and args.checkpoint is None:
        print("--resume needs --checkpoint", file=sys.stderr)
        return 2
    scenario = None
    if args.scenario is not None:
        from .scenarios import get_scenario
        scenario = get_scenario(args.scenario)
        print(f"scenario {scenario.scenario_id} "
              f"(K={scenario.k}: {', '.join(scenario.ecosystem.processes)})")
    ecosystem = (scenario.ecosystem if scenario is not None
                 else PAPER_ECOSYSTEM)
    if args.replay:
        factories = []
        taken: set[str] = set()
        for i, path in enumerate(args.replay):
            name = Path(path).stem
            if name in taken:
                name = f"{name}#{i}"
            taken.add(name)
            factories.append((name, lambda p=path: jsonl_source(p)))
    else:
        from .pipeline import stream_source_factories
        from .synthesis.world import build_world
        print("generating world ...")
        config = (scenario.world if scenario is not None
                  else _world_config(args))
        world = build_world(config)
        factories = stream_source_factories(world, stream_seed=args.seed)
    quarantine = None
    if args.chaos_seed is not None or args.quarantine is not None:
        # Supervised ingest: transient faults restart the source with
        # deterministic replay; malformed records go to the quarantine
        # sidecar instead of killing the run.  --chaos-seed injects a
        # reproducible fault schedule in front of each source.
        from .resilience import FaultPlan, Quarantine, supervised_source
        quarantine = Quarantine(args.quarantine)
        plan = (FaultPlan(args.chaos_seed)
                if args.chaos_seed is not None else None)
        sources = []
        for name, factory in factories:
            if plan is not None:
                faults = plan.source(name)
                factory = (lambda f=factory, inj=faults: inj.wrap(f()))
            sources.append((name, supervised_source(
                name, factory, quarantine=quarantine)))
    else:
        sources = [(name, factory()) for name, factory in factories]
    bus = EventBus(sources)
    refitter = None
    if not args.skip_refit:
        refitter = WindowedHawkesRefitter(
            policy=RefitPolicy(every_records=args.refit_every,
                               max_urls=args.refit_max_urls,
                               n_jobs=args.jobs),
            seed=args.seed)
    publish_store = None
    if args.cache is not None:
        from .api import ArtifactStore
        publish_store = ArtifactStore(args.cache)
    # Rolling summaries go through the "repro.live" logger: visible
    # with -v, quiet otherwise (the final tables always print).
    engine = LiveEngine(
        bus,
        refitter=refitter,
        checkpoint_path=args.checkpoint,
        checkpoint_every=args.checkpoint_every,
        summary_every=args.summary_every,
        publish_store=publish_store,
        ecosystem=ecosystem)
    if args.resume and Path(args.checkpoint).exists():
        engine.restore()
        print(f"resumed at {engine.records_seen} records "
              f"from {args.checkpoint}")
    engine.run(limit=args.limit)

    final = engine.summary()
    print(final.format())
    for category in (NewsCategory.ALTERNATIVE, NewsCategory.MAINSTREAM):
        rows = engine.first_hops.first_hop(category)
        if rows:
            print(render_table(
                ["Sequence", "URLs", "%"],
                [[r.sequence, str(r.count), f"{r.percentage:.1f}"]
                 for r in rows],
                title=f"First-hop sequences — {category.value}"))
    top = [[name] + [
        f"{row.name} ({row.percentage:.1f}%)"
        for row in engine.domains.top_domains(
            name, NewsCategory.ALTERNATIVE, 3)]
        for name in ecosystem.slices]
    width = max(len(row) for row in top)
    print(render_table(
        ["Slice"] + [f"#{i + 1}" for i in range(width - 1)],
        [row + [""] * (width - len(row)) for row in top],
        title="Top alternative domains per slice"))
    if refitter is not None and refitter.last_result is not None:
        fits = refitter.last_result.fits
        print(f"last refit: {len(fits)} URLs fitted "
              f"({refitter.n_refits} refits total)")
    if quarantine is not None:
        where = (f" -> {args.quarantine}"
                 if args.quarantine is not None else "")
        print(f"quarantined {quarantine.count} records{where}")
        for reason, count in sorted(quarantine.by_reason().items()):
            print(f"  {count:6d}  {reason}")
    return 0


def cmd_list(args: argparse.Namespace) -> int:
    """Print the experiment index (``--json`` for machine-readable)."""
    if args.json:
        from .api.serialize import experiments_payload
        print(json.dumps(experiments_payload(), indent=2, sort_keys=True))
        return 0
    for experiment in EXPERIMENTS:
        print(f"{experiment.exp_id:10s} {experiment.title}")
    return 0


def cmd_scenarios(args: argparse.Namespace) -> int:
    """List scenario presets, or run one end-to-end (KxK influence)."""
    from .scenarios import all_scenarios, get_scenario
    if args.action == "list":
        if args.json:
            from .api.serialize import scenarios_payload
            print(json.dumps(scenarios_payload(), indent=2, sort_keys=True))
            return 0
        for scenario in all_scenarios():
            print(f"{scenario.scenario_id:18s} K={scenario.k}  "
                  f"{scenario.title}")
        return 0
    from .api import Study
    from .news.domains import NewsCategory
    from .reporting import render_table
    scenario = get_scenario(args.name)
    print(f"running {scenario.scenario_id} "
          f"(K={scenario.k}: {', '.join(scenario.ecosystem.processes)})")
    study = Study(scenario=scenario, max_urls=args.max_urls,
                  n_jobs=args.jobs, cache_dir=args.cache)
    result = study.influence()
    processes = result.processes
    for category in (NewsCategory.ALTERNATIVE, NewsCategory.MAINSTREAM):
        stack = result.weight_stack(category)
        if not len(stack):
            continue
        mean = stack.mean(axis=0)
        print(render_table(
            ["W src\\dst"] + list(processes),
            [[src] + [f"{mean[i, j]:.4f}"
                      for j in range(len(processes))]
             for i, src in enumerate(processes)],
            title=f"Mean weights — {category.value} "
                  f"({scenario.k}x{scenario.k})"))
    if args.report is not None:
        path = study.write_report(args.report)
        print(f"wrote {path}")
    _publish_metrics(study)
    return 0


def cmd_reproduce(args: argparse.Namespace) -> int:
    """Run one experiment's claims benchmark via pytest."""
    try:
        experiment = by_id(args.experiment)
    except KeyError:
        print(f"unknown experiment {args.experiment!r}; "
              "try `python -m repro list`", file=sys.stderr)
        return 2
    import pytest
    print(f"running {BENCH_FILE} -k {experiment.slug} ...")
    return pytest.main([BENCH_FILE, "-k", experiment.slug,
                        "--benchmark-only", "-q"])


def cmd_validate(args: argparse.Namespace) -> int:
    """Generate a world and check every paper claim that applies to it."""
    from .claims import format_results, run_claims
    study = _study(args)
    results = run_claims(study, include_fits=not args.skip_influence)
    print(format_results(results))
    _publish_metrics(study)
    return 0 if all(r.passed is not False for r in results) else 1


def cmd_report(args: argparse.Namespace) -> int:
    """Generate a world and write a full study report (markdown)."""
    study = _study(args)
    path = study.write_report(
        args.out, include_influence=not args.skip_influence)
    print(f"wrote {path}")
    _publish_metrics(study)
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Serve tables and influence results over HTTP (JSON + ETag/304).

    SIGTERM and SIGINT trigger a graceful shutdown: the accept loop
    stops, in-flight requests finish (bounded wait), then the socket
    closes — so ``kill`` during a long table render never truncates a
    response mid-body.
    """
    import signal
    import threading
    from .api import StudyService
    study = _study(args)
    service = StudyService(study, host=args.host, port=args.port)
    print(f"serving http://{args.host}:{service.port}/ "
          "(endpoints: /healthz /experiments /scenarios /tables/<1-11> "
          "/influence /stages /metrics)")
    stop = threading.Event()
    previous = {}
    try:
        for signum in (signal.SIGINT, signal.SIGTERM):
            previous[signum] = signal.signal(
                signum, lambda *_: stop.set())
    except ValueError:  # not the main thread (embedded use): no signals
        pass
    server = threading.Thread(target=service.serve_forever,
                              name="repro-serve", daemon=True)
    server.start()
    try:
        stop.wait()
    except KeyboardInterrupt:  # signal handler not installed
        pass
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        print("shutting down (draining in-flight requests)")
        drained = service.drain()
        server.join(timeout=5.0)
        if not drained:
            print("drain timed out; some requests were cut off",
                  file=sys.stderr)
    return 0 if drained else 1


def cmd_stats(args: argparse.Namespace) -> int:
    """Report run metrics from an artifact cache and/or a trace file."""
    if args.cache is None and args.trace is None:
        print("stats needs --cache DIR and/or --trace FILE",
              file=sys.stderr)
        return 2
    status = 0
    if args.cache is not None:
        from .api import ArtifactStore
        from .obs import METRICS_REF, render_text
        store = ArtifactStore(args.cache)
        key = store.get_ref(METRICS_REF)
        snapshot = store.get(key) if key is not None else None
        if snapshot is None:
            print(f"no metrics snapshot published under {args.cache!r} "
                  f"(ref {METRICS_REF!r}); run e.g. `repro report "
                  f"--cache {args.cache}` first", file=sys.stderr)
            status = 1
        elif args.json:
            print(json.dumps(snapshot, indent=2, sort_keys=True))
        else:
            print(render_text(snapshot))
    if args.trace is not None:
        from .obs import summarize_trace
        from .reporting import render_table
        try:
            summary = summarize_trace(args.trace)
        except OSError as exc:
            print(f"cannot read trace {args.trace!r}: {exc}",
                  file=sys.stderr)
            return 1
        if args.json:
            print(json.dumps(summary, indent=2))
        elif not summary:
            print(f"trace {args.trace} holds no spans")
        else:
            print(render_table(
                ["Span", "Count", "Wall s", "CPU s", "Mean s", "Max s"],
                [[name, str(agg["count"]), f"{agg['wall_s']:.3f}",
                  f"{agg['cpu_s']:.3f}", f"{agg['mean_wall_s']:.4f}",
                  f"{agg['max_wall_s']:.4f}"]
                 for name, agg in summary.items()],
                title=f"Trace summary — {args.trace}"))
    return status


def cmd_experiments(args: argparse.Namespace) -> int:
    """Regenerate EXPERIMENTS.md from results/ artifacts."""
    from .reporting.experiments import write_experiments_md
    path = write_experiments_md(args.out, args.results)
    print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Web Centipede reproduction toolkit")
    _add_verbose_arg(parser)
    sub = parser.add_subparsers(dest="command", required=True)

    world = sub.add_parser("world", help=cmd_world.__doc__)
    _add_world_args(world)
    world.add_argument("--out", default="data")
    _add_cache_arg(world)
    world.set_defaults(func=cmd_world)

    live = sub.add_parser("live", help=cmd_live.__doc__)
    _add_world_args(live)
    _add_scenario_arg(live)
    live.add_argument("--replay", nargs="+", metavar="JSONL",
                      help="replay saved datasets instead of a new world")
    live.add_argument("--limit", type=int, default=None,
                      help="stop after this many records")
    live.add_argument("--summary-every", type=int, default=2000)
    live.add_argument("--checkpoint", default=None,
                      help="checkpoint file (JSON)")
    live.add_argument("--checkpoint-every", type=int, default=20000)
    live.add_argument("--resume", action="store_true",
                      help="restore from --checkpoint before streaming")
    live.add_argument("--skip-refit", action="store_true")
    live.add_argument("--refit-every", type=int, default=25000)
    live.add_argument("--refit-max-urls", type=int, default=50)
    live.add_argument("--chaos-seed", type=int, default=None, metavar="N",
                      help="inject a seeded, reproducible fault schedule "
                           "(transient source errors + malformed records) "
                           "in front of every source; implies supervised "
                           "ingest")
    live.add_argument("--quarantine", default=None, metavar="JSONL",
                      help="supervise sources and append quarantined "
                           "records to this dead-letter sidecar")
    _add_jobs_arg(live)
    _add_cache_arg(live)
    live.set_defaults(func=cmd_live)

    scenarios = sub.add_parser("scenarios", help=cmd_scenarios.__doc__)
    scenario_sub = scenarios.add_subparsers(dest="action", required=True)
    scenarios_list = scenario_sub.add_parser(
        "list", help="list registered scenario presets")
    scenarios_list.add_argument(
        "--json", action="store_true",
        help="machine-readable output (same serializer as /scenarios)")
    scenarios_list.set_defaults(func=cmd_scenarios)
    scenarios_run = scenario_sub.add_parser(
        "run", help="run one preset and print its KxK weight matrices")
    scenarios_run.add_argument("name", help='e.g. "gab" or "gab@v1"')
    scenarios_run.add_argument("--max-urls", type=int, default=120)
    scenarios_run.add_argument("--report", default=None, metavar="MD",
                               help="also write the full study report here")
    _add_jobs_arg(scenarios_run)
    _add_cache_arg(scenarios_run)
    scenarios_run.set_defaults(func=cmd_scenarios)

    listing = sub.add_parser("list", help=cmd_list.__doc__)
    listing.add_argument("--json", action="store_true",
                         help="machine-readable output (same serializer "
                              "as the /experiments endpoint)")
    listing.set_defaults(func=cmd_list)

    reproduce = sub.add_parser("reproduce", help=cmd_reproduce.__doc__)
    reproduce.add_argument("experiment",
                           help='e.g. "Table 4", "Figure 10" or "fig 10"')
    reproduce.set_defaults(func=cmd_reproduce)

    validate = sub.add_parser("validate", help=cmd_validate.__doc__)
    _add_world_args(validate)
    _add_scenario_arg(validate)
    validate.add_argument("--skip-influence", action="store_true")
    validate.add_argument("--max-urls", type=int, default=150)
    _add_jobs_arg(validate)
    _add_cache_arg(validate)
    validate.set_defaults(func=cmd_validate)

    report = sub.add_parser("report", help=cmd_report.__doc__)
    _add_world_args(report)
    _add_scenario_arg(report)
    report.add_argument("--out", default="STUDY_REPORT.md")
    report.add_argument("--skip-influence", action="store_true")
    report.add_argument("--max-urls", type=int, default=120)
    _add_jobs_arg(report)
    _add_cache_arg(report)
    report.set_defaults(func=cmd_report)

    serve = sub.add_parser("serve", help=cmd_serve.__doc__)
    _add_world_args(serve)
    _add_scenario_arg(serve)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8731)
    serve.add_argument("--max-urls", type=int, default=120)
    _add_jobs_arg(serve)
    _add_cache_arg(serve)
    serve.set_defaults(func=cmd_serve)

    stats = sub.add_parser("stats", help=cmd_stats.__doc__)
    stats.add_argument("--cache", default=None, metavar="DIR",
                       help="artifact-cache directory a run published "
                            "its metrics snapshot into")
    stats.add_argument("--trace", default=None, metavar="FILE",
                       help="REPRO_TRACE JSONL file to aggregate")
    stats.add_argument("--json", action="store_true",
                       help="machine-readable output")
    stats.set_defaults(func=cmd_stats)

    experiments = sub.add_parser("experiments",
                                 help=cmd_experiments.__doc__)
    experiments.add_argument("--out", default="EXPERIMENTS.md")
    experiments.add_argument("--results", default="results")
    experiments.set_defaults(func=cmd_experiments)

    for command in sub.choices.values():
        _add_verbose_arg(command, suppress_default=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    verbosity = getattr(args, "verbose", 0)
    _configure_logging(verbosity)
    try:
        return args.func(args)
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    except Exception as exc:
        # One-line diagnosis for operators; the full traceback is a
        # debugging tool, available on request via -vv.
        if verbosity >= 2:
            raise
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
