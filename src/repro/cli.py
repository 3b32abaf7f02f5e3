"""Command-line interface: ``eof-fuzz``.

Subcommands::

    eof-fuzz targets                   list registered fuzz targets
    eof-fuzz build   --target NAME     build an image and show its layout
    eof-fuzz run     --target NAME     fuzz a target
                     --trace-dir DIR   ... writing run artifacts to DIR
                     --chaos PROFILE   ... under deterministic fault injection
    eof-fuzz campaign TARGET           parallel multi-board campaign
                     --workers N       ... N worker boards
                     --sync-interval C ... shared-corpus sync every C cycles
                     --dashboard       ... live ANSI table at every barrier
                     --state-dir DIR   ... durable crash-safe state store
                     --resume          ... continue from the last epoch
                     --warm-start DIR  ... pre-seed from another campaign
    eof-fuzz report  RUN_DIR           render a recorded run's report
                     --format F        ... as text (default), json or html
    eof-fuzz analyze TARGET            static analysis of one target
                     --out DIR         ... writing analysis.json to DIR
                     --explain CODE    document one diagnostic code
    eof-fuzz lint    [PATH ...]        determinism-lint python sources
    eof-fuzz concurrency [PATH ...]    concurrency-effect analysis (EOF4xx)
    eof-fuzz repro   --bug N           run a Table 2 bug reproducer
    eof-fuzz bugs                      list the Table 2 bug catalog
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.bench.runner import make_engine
from repro.chaos import PROFILES
from repro.errors import RecoveryExhausted
from repro.farm import BACKENDS
from repro.firmware.builder import build_firmware
from repro.fuzz.oneshot import execute_once
from repro.fuzz.targets import TARGETS, get_target
from repro.oses.bugs import BUG_TABLE


def _cmd_targets(_args) -> int:
    for name, target in sorted(TARGETS.items()):
        print(f"{name:16} {target.os_name:10} on {target.board:10} "
              f"[{target.arch}]  {target.description}")
    return 0


def _cmd_build(args) -> int:
    target = get_target(args.target)
    build = build_firmware(target.build_config(instrument=not args.bare))
    print(f"target    : {target.name} ({target.os_name} on {target.board})")
    print(f"image     : {build.image_total_bytes} bytes"
          f" ({'instrumented' if build.config.instrument else 'bare'})")
    print(f"symbols   : {len(build.symbols)}")
    print(f"cov sites : {build.site_table.total_sites}")
    print(f"APIs      : {len(build.api_order)}")
    print("partitions:")
    for part in build.partition_specs:
        print(f"  {part.name:8} offset=0x{part.offset:06x} "
              f"size=0x{part.size:06x}")
    return 0


def _sample_interval(requested: int, budget_cycles: int) -> int:
    """Epoch width in cycles: the request, or ~50 samples per budget."""
    if requested > 0:
        return requested
    return max(budget_cycles // 50, 1)


def _cmd_run(args) -> int:
    target = get_target(args.target)
    build = build_firmware(target.build_config())
    obs = None
    if args.trace_dir:
        from repro.obs import (FlightRecorder, JsonlSink, Observability,
                               TimeSeriesSampler)
        from repro.obs.report import EVENTS_FILE
        from repro.obs.timeseries import TIMESERIES_FILE
        os.makedirs(args.trace_dir, exist_ok=True)
        obs = Observability(
            run_id=f"{args.fuzzer}-{args.target}-seed{args.seed}")
        obs.attach(JsonlSink(os.path.join(args.trace_dir, EVENTS_FILE)))
        obs.sampler = TimeSeriesSampler(
            _sample_interval(args.sample_interval, args.budget),
            path=os.path.join(args.trace_dir, TIMESERIES_FILE))
        obs.attach_flight(FlightRecorder(args.trace_dir))
    engine = make_engine(args.fuzzer, build, args.seed, args.budget,
                         obs=obs, chaos=args.chaos,
                         chaos_seed=args.chaos_seed,
                         snapshots=not args.no_snapshot)
    chaos_note = f", chaos {args.chaos}" if args.chaos else ""
    print(f"fuzzing {target.name} with {args.fuzzer} "
          f"(budget {args.budget} cycles, seed {args.seed}{chaos_note}) ...")
    core = engine.engine if hasattr(engine, "engine") else engine
    exit_code = 0
    try:
        result = engine.run()
        stats, crash_db = result.stats, result.crash_db
    except RecoveryExhausted as exc:
        # Quarantined board: report what the run achieved, exit loudly.
        stats, crash_db = core.stats, core.crash_db
        print(f"run aborted: {exc}", file=sys.stderr)
        exit_code = 2
    print(stats.summary())
    if stats.link_transactions:
        attempts = max(stats.programs_executed + stats.rejected_programs, 1)
        print(f"link: {stats.link_transactions} transactions "
              f"({stats.link_transactions / attempts:.1f}/program), "
              f"{stats.link_bytes} bytes")
    if stats.recoveries or stats.recovery_failures:
        print(f"recoveries={stats.recoveries} "
              f"reattaches={stats.reattaches} "
              f"exhausted={stats.recovery_failures}")
    if stats.snapshot_restores or stats.snapshot_fallbacks:
        print(f"snapshot: {stats.snapshot_restores} restores "
              f"({stats.snapshot_pages_written} pages), "
              f"{stats.snapshot_fallbacks} fallbacks to reflash")
    for report in crash_db.unique_crashes():
        print()
        print(report.render())
    if obs is not None:
        from repro.analysis import (analysis_summary, analyze_target,
                                    write_analysis_artifact)
        from repro.obs.report import collect_run_data, write_run_artifacts
        obs.close()
        data = collect_run_data(obs, stats=stats, meta={
            "target": args.target, "fuzzer": args.fuzzer,
            "seed": args.seed, "budget_cycles": args.budget,
            "chaos": args.chaos or "none"})
        # Static-analysis snapshot rides along with the run artifacts so
        # a recorded run carries its own edge-universe provenance, and
        # its compact summary lands in report.txt.
        analysis = analyze_target(args.target, include_lint=False)
        data["analysis"] = analysis_summary(analysis)
        write_run_artifacts(args.trace_dir, data)
        write_analysis_artifact(args.trace_dir, analysis)
        print(f"run artifacts written to {args.trace_dir}")
    return exit_code


def _cmd_campaign(args) -> int:
    import signal

    from repro.bench.runner import make_campaign
    from repro.errors import StoreError
    target = get_target(args.target)
    if args.resume and not args.state_dir:
        print("--resume requires --state-dir", file=sys.stderr)
        return 1
    obs = None
    worker_obs = None
    epoch_hook = None
    worker_bundles = []
    per_worker_budget = max(args.budget // max(args.workers, 1), 1)
    if args.trace_dir:
        from repro.obs import (FlightRecorder, JsonlSink, Observability,
                               TimeSeriesSampler)
        from repro.obs.report import EVENTS_FILE
        from repro.obs.timeseries import TIMESERIES_FILE
        os.makedirs(args.trace_dir, exist_ok=True)
        obs = Observability(
            run_id=f"campaign-{args.target}-seed{args.seed}")
        obs.attach(JsonlSink(os.path.join(args.trace_dir, EVENTS_FILE)))
        # The campaign-level series is barrier-driven (one row per sync
        # epoch, recorded by the orchestrator); the interval only names
        # the epoch width for consumers of the artifact.
        obs.sampler = TimeSeriesSampler(
            max(args.sync_interval, 1),
            path=os.path.join(args.trace_dir, TIMESERIES_FILE))

        def worker_obs(index: int):
            # One trace subdirectory per board: worker-<i>/events.jsonl
            # plus the worker's own timeseries and flight dumps.
            subdir = os.path.join(args.trace_dir, f"worker-{index}")
            os.makedirs(subdir, exist_ok=True)
            bundle = Observability(
                run_id=f"campaign-{args.target}-seed{args.seed}"
                       f"-w{index}")
            bundle.attach(JsonlSink(os.path.join(subdir, EVENTS_FILE)))
            bundle.sampler = TimeSeriesSampler(
                _sample_interval(args.sample_interval,
                                 per_worker_budget),
                path=os.path.join(subdir, TIMESERIES_FILE))
            bundle.attach_flight(FlightRecorder(subdir))
            worker_bundles.append(bundle)
            return bundle

    if args.dashboard:
        from repro.obs.render import render_dashboard

        def epoch_hook(summary):
            print(render_dashboard(
                summary, ansi=sys.stdout.isatty()))

    if args.backend != "thread" and worker_obs is not None:
        # Remote workers build their engines in the child; per-worker
        # observability bundles cannot cross the transport.
        print(f"note: per-worker traces need the thread backend; "
              f"the {args.backend} backend writes campaign-level "
              f"artifacts only", file=sys.stderr)
        worker_obs = None
    print(f"campaign on {target.name}: {args.workers} workers "
          f"({args.backend} backend), total budget {args.budget} "
          f"cycles, sync every {args.sync_interval} cycles, "
          f"seed {args.seed} ...")
    # First SIGINT/SIGTERM asks for a clean stop at the next epoch
    # barrier (state checkpointed, exit code 3); a second one aborts
    # hard.  The handler only sets a flag — all real work happens on
    # the coordinator thread at the barrier.  Handlers go in *before*
    # the store opens and the boards build, so an interrupt that lands
    # during bring-up still honours the exit-code contract.
    stop_signals = []
    orchestrator = None

    def _graceful_stop(signum, _frame):
        if stop_signals:
            raise KeyboardInterrupt
        stop_signals.append(signum)
        if orchestrator is not None:
            orchestrator.request_stop()
        print("\ninterrupt: finishing the current epoch, then "
              "checkpointing (signal again to abort hard) ...",
              file=sys.stderr)

    previous_handlers = {
        sig: signal.signal(sig, _graceful_stop)
        for sig in (signal.SIGINT, signal.SIGTERM)}
    try:
        try:
            orchestrator = make_campaign(
                target, workers=args.workers,
                total_budget_cycles=args.budget,
                campaign_seed=args.seed,
                sync_interval=args.sync_interval,
                import_cap=args.import_cap, obs=obs,
                worker_obs=worker_obs,
                epoch_hook=epoch_hook, state_dir=args.state_dir,
                resume=args.resume, warm_start_dir=args.warm_start,
                checkpoint_every=args.checkpoint_every,
                snapshots=not args.no_snapshot,
                backend=args.backend,
                corpus_shards=args.shards)
        except StoreError as exc:
            print(f"campaign store: {exc}", file=sys.stderr)
            return 1
        store = orchestrator.store
        if store is not None:
            salvage = store.salvage_summary()
            if args.resume:
                print(f"resuming from epoch "
                      f"{salvage['resumed_from_epoch']}: "
                      f"{len(store.entries)} seeds, "
                      f"{len(store.edges)} edges, "
                      f"{len(store.crashes)} crash signatures restored")
            if salvage["quarantined_spans"] \
                    or salvage["torn_tail_bytes"] \
                    or salvage["dropped_uncommitted"]:
                print(f"store salvage: {salvage['salvaged_records']} "
                      f"records kept, {salvage['quarantined_spans']} "
                      f"quarantined, {salvage['torn_tail_bytes']} torn "
                      f"bytes dropped, {salvage['dropped_uncommitted']} "
                      f"uncommitted records discarded")
        if orchestrator.state.seeds_warmed:
            print(f"warm start: {orchestrator.state.seeds_warmed} "
                  f"seeds from {args.warm_start}")
        if stop_signals:
            orchestrator.request_stop()
        result = orchestrator.run()
    finally:
        for sig, handler in previous_handlers.items():
            signal.signal(sig, handler)
    stats = result.stats
    print(stats.summary())
    for index, worker in enumerate(result.worker_results):
        print(f"  worker-{index}: {worker.stats.summary()}")
    for triaged in result.crashes.values():
        print()
        boards = ",".join(str(w) for w in sorted(triaged.workers))
        print(f"seen {triaged.count}x on board(s) {boards}, first in "
              f"epoch {triaged.first_epoch}:")
        print(triaged.report.render())
    if obs is not None:
        from repro.obs.profile import aggregate_profiles, build_profile
        from repro.obs.report import (collect_campaign_data,
                                      collect_run_data,
                                      write_run_artifacts)
        # Per-worker artifact sets first (each worker dir becomes a
        # self-contained run directory), then the campaign-level set
        # with the workers' profiles summed into one budget tree.
        worker_profiles = []
        for index, bundle in enumerate(worker_bundles):
            bundle.close()
            worker_stats = result.worker_results[index].stats
            worker_data = collect_run_data(
                bundle, stats=worker_stats, meta={
                    "target": args.target, "worker": index,
                    "campaign_seed": args.seed})
            worker_profiles.append(build_profile(worker_data))
            write_run_artifacts(
                os.path.join(args.trace_dir, f"worker-{index}"),
                worker_data)
        obs.close()
        data = collect_campaign_data(obs, stats, meta={
            "target": args.target, "workers": args.workers,
            "sync_interval": args.sync_interval,
            "campaign_seed": args.seed,
            "total_budget_cycles": args.budget})
        if worker_profiles:
            data["profile"] = aggregate_profiles(
                worker_profiles, run_id=obs.run_id)
        write_run_artifacts(args.trace_dir, data)
        print(f"campaign artifacts written to {args.trace_dir}")
    if stats.aborted_workers == args.workers:
        print("all workers quarantined", file=sys.stderr)
        return 2
    if stats.interrupted:
        where = f" --state-dir {args.state_dir} --resume" \
            if args.state_dir else ""
        print(f"campaign interrupted at epoch {stats.sync_epochs}; "
              f"state checkpointed — continue with: eof-fuzz campaign "
              f"{args.target}{where}", file=sys.stderr)
        return 3
    return 0


def _cmd_analyze(args) -> int:
    from repro.analysis import (analyze_target, explain_code,
                                write_analysis_artifact)
    if args.explain:
        text = explain_code(args.explain)
        if text is None:
            print(f"unknown diagnostic code {args.explain!r}",
                  file=sys.stderr)
            return 1
        print(text)
        return 0
    if not args.target:
        print("analyze: a TARGET (or --explain CODE) is required",
              file=sys.stderr)
        return 1
    report = analyze_target(args.target, include_lint=not args.no_lint,
                            include_concurrency=not args.no_concurrency)
    print(report.render())
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = write_analysis_artifact(args.out, report)
        print(f"\nanalysis written to {path}")
    return 0 if report.clean else 1


def _cmd_lint(args) -> int:
    from repro.analysis import lint_sources
    report = lint_sources(args.paths or None)
    print(report.render())
    return 0 if report.clean else 1


def _cmd_concurrency(args) -> int:
    from repro.analysis import analyze_concurrency
    report = analyze_concurrency(args.paths or None)
    print(report.render())
    return 0 if report.clean else 1


def _cmd_report(args) -> int:
    from repro.obs.report import (METRICS_FILE, SchemaVersionError,
                                  count_events, load_run_data,
                                  render_report)
    if not os.path.exists(os.path.join(args.run_dir, METRICS_FILE)):
        print(f"no {METRICS_FILE} in {args.run_dir}", file=sys.stderr)
        return 1
    try:
        data = load_run_data(args.run_dir)
    except SchemaVersionError as exc:
        print(f"cannot render: {exc}", file=sys.stderr)
        return 1
    if args.format == "json":
        from repro.obs.render import dump_json
        print(dump_json(data))
        return 0
    if args.format == "html":
        from repro.obs.render import render_html
        from repro.obs.timeseries import TIMESERIES_FILE, load_timeseries
        ts_path = os.path.join(args.run_dir, TIMESERIES_FILE)
        timeseries = load_timeseries(ts_path) \
            if os.path.exists(ts_path) else None
        print(render_html(data, timeseries=timeseries))
        return 0
    print(render_report(data))
    recorded = count_events(args.run_dir)
    if recorded:
        print(f"\n{recorded} events recorded in "
              f"{os.path.join(args.run_dir, 'events.jsonl')}")
    return 0


def _cmd_spec(args) -> int:
    from repro.spec.llmgen import synthesize_spec_text
    target = get_target(args.target)
    build = build_firmware(target.build_config())
    print(synthesize_spec_text(build.api_defs, target.os_name), end="")
    return 0


def _cmd_bugs(_args) -> int:
    for bug in BUG_TABLE:
        mark = "confirmed" if bug.confirmed else ""
        print(f"#{bug.number:2} {bug.os_name:10} {bug.scope:10} "
              f"{bug.bug_type:17} {bug.operation:24} {mark}")
    return 0


def _cmd_repro(args) -> int:
    bug = next((b for b in BUG_TABLE if b.number == args.bug), None)
    if bug is None:
        print(f"no bug #{args.bug} in Table 2", file=sys.stderr)
        return 1
    target = get_target(bug.os_name)
    print(f"reproducing bug #{bug.number}: {bug.operation} on "
          f"{bug.os_name} ...")
    outcome = execute_once(target, list(bug.reproducer))
    if outcome.crash is not None:
        print(outcome.crash.render())
    for report in outcome.log_crashes:
        print(report.render())
    if not outcome.crashed:
        print("reproducer did not crash (unexpected)", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="eof-fuzz",
        description="EOF: on-hardware embedded OS fuzzing (reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("targets", help="list registered targets")

    build_p = sub.add_parser("build", help="build a firmware image")
    build_p.add_argument("--target", required=True)
    build_p.add_argument("--bare", action="store_true",
                         help="build without instrumentation")

    run_p = sub.add_parser("run", help="fuzz a target")
    run_p.add_argument("--target", required=True)
    run_p.add_argument("--fuzzer", default="eof",
                       choices=["eof", "eof-nf", "tardis", "gustave"])
    run_p.add_argument("--budget", type=int, default=4_000_000,
                       help="virtual-cycle budget")
    run_p.add_argument("--seed", type=int, default=1)
    run_p.add_argument("--chaos", default=None, metavar="PROFILE",
                       choices=sorted(PROFILES),
                       help="inject deterministic link/board faults: "
                            + ", ".join(sorted(PROFILES)))
    run_p.add_argument("--chaos-seed", type=int, default=None,
                       help="separate seed for the fault streams "
                            "(default: --seed)")
    run_p.add_argument("--no-snapshot", action="store_true",
                       help="disable snapshot-tier state restoration "
                            "and recover via the reflash ladder only "
                            "(same results, slower recovery)")
    run_p.add_argument("--trace-dir", default=None,
                       help="write run artifacts (events.jsonl, "
                            "metrics.json, timeseries.jsonl, "
                            "profile.json, metrics.prom, report.txt, "
                            "report.html, flight dumps) into this "
                            "directory")
    run_p.add_argument("--sample-interval", type=int, default=0,
                       metavar="CYCLES",
                       help="timeseries epoch width in virtual cycles "
                            "(default: budget/50)")

    campaign_p = sub.add_parser(
        "campaign", help="parallel multi-board campaign with "
                         "shared-corpus sync",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="exit codes:\n"
               "  0  campaign ran its whole cycle budget\n"
               "  1  error (bad arguments, campaign-store mismatch)\n"
               "  2  every worker board was quarantined\n"
               "  3  interrupted (SIGINT/SIGTERM): the last completed\n"
               "     epoch is checkpointed; rerun with --state-dir DIR\n"
               "     --resume to continue deterministically\n")
    campaign_p.add_argument("target")
    campaign_p.add_argument("--workers", type=int, default=2,
                            help="worker boards fuzzing in parallel")
    campaign_p.add_argument("--sync-interval", type=int,
                            default=400_000, metavar="CYCLES",
                            help="virtual cycles between shared-corpus "
                                 "sync epochs (0 = independent runs)")
    campaign_p.add_argument("--budget", type=int, default=4_000_000,
                            help="total virtual-cycle budget across "
                                 "all workers")
    campaign_p.add_argument("--seed", type=int, default=1,
                            help="campaign seed (worker streams are "
                                 "derived from it)")
    campaign_p.add_argument("--import-cap", type=int, default=2,
                            help="max cross-worker seeds imported per "
                                 "worker per sync epoch")
    campaign_p.add_argument("--backend", default="thread",
                            choices=BACKENDS,
                            help="where workers execute: in-process "
                                 "threads (default, the determinism "
                                 "reference) or one child process per "
                                 "board; both give the same campaign")
    campaign_p.add_argument("--shards", type=int, default=None,
                            metavar="N",
                            help="shared-corpus shard count "
                                 "(default: 8; any count is "
                                 "observationally equivalent)")
    campaign_p.add_argument("--trace-dir", default=None,
                            help="write campaign artifacts plus "
                                 "worker-<i>/ trace subdirectories "
                                 "into this directory")
    campaign_p.add_argument("--sample-interval", type=int, default=0,
                            metavar="CYCLES",
                            help="per-worker timeseries epoch width "
                                 "(default: worker budget/50)")
    campaign_p.add_argument("--dashboard", action="store_true",
                            help="print a live ANSI status table at "
                                 "every sync-epoch barrier")
    campaign_p.add_argument("--no-snapshot", action="store_true",
                            help="disable snapshot-tier state "
                                 "restoration on every worker board")
    campaign_p.add_argument("--state-dir", default=None, metavar="DIR",
                            help="persist campaign state (corpus, "
                                 "frontier, crashes) into DIR via a "
                                 "crash-safe journal + checkpoint "
                                 "store")
    campaign_p.add_argument("--resume", action="store_true",
                            help="continue the campaign persisted in "
                                 "--state-dir from its last completed "
                                 "epoch (options must match the "
                                 "original run)")
    campaign_p.add_argument("--warm-start", default=None, metavar="DIR",
                            help="pre-seed the shared corpus from "
                                 "another campaign's state directory "
                                 "(footprints stay out of this run's "
                                 "frontier)")
    campaign_p.add_argument("--checkpoint-every", type=int, default=4,
                            metavar="EPOCHS",
                            help="compact the journal into a full "
                                 "checkpoint every N epochs "
                                 "(default: 4)")

    report_p = sub.add_parser(
        "report", help="render the report of a recorded run directory")
    report_p.add_argument("run_dir")
    report_p.add_argument("--format", default="text",
                          choices=["text", "json", "html"],
                          help="output rendering (default: text)")

    analyze_p = sub.add_parser(
        "analyze", help="static analysis: spec lint + reachability + "
                        "determinism + concurrency")
    analyze_p.add_argument("target", nargs="?", default=None)
    analyze_p.add_argument("--out", default=None, metavar="DIR",
                           help="also write analysis.json into DIR")
    analyze_p.add_argument("--no-lint", action="store_true",
                           help="skip the determinism lint of the host "
                                "sources")
    analyze_p.add_argument("--no-concurrency", action="store_true",
                           help="skip the concurrency-effect pass")
    analyze_p.add_argument("--explain", default=None, metavar="CODE",
                           help="print the documentation of one "
                                "diagnostic code (e.g. EOF401) and exit")

    lint_p = sub.add_parser(
        "lint", help="determinism lint of the host python sources")
    lint_p.add_argument("paths", nargs="*",
                        help="files/directories to lint (default: the "
                             "installed repro package)")

    conc_p = sub.add_parser(
        "concurrency", help="concurrency-effect analysis (EOF4xx) of "
                            "the host python sources")
    conc_p.add_argument("paths", nargs="*",
                        help="files/directories to analyze (default: "
                             "the installed repro package)")

    sub.add_parser("bugs", help="list the Table 2 bug catalog")

    spec_p = sub.add_parser("spec", help="dump the synthesised Syzlang")
    spec_p.add_argument("--target", required=True)

    repro_p = sub.add_parser("repro", help="run a bug reproducer")
    repro_p.add_argument("--bug", type=int, required=True)

    args = parser.parse_args(argv)
    handlers = {"targets": _cmd_targets, "build": _cmd_build,
                "run": _cmd_run, "campaign": _cmd_campaign,
                "report": _cmd_report, "bugs": _cmd_bugs,
                "repro": _cmd_repro, "spec": _cmd_spec,
                "analyze": _cmd_analyze, "lint": _cmd_lint,
                "concurrency": _cmd_concurrency}
    try:
        return handlers[args.command](args)
    except BrokenPipeError:
        # Reader (e.g. `... | head`) went away; not an error worth a traceback.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
