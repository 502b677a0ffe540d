"""Command-line interface: ``python -m repro <command>``.

Commands
--------
compile    MiniC -> IR (exact serialized form, or --pretty for reading)
run        compile + interpret a MiniC program, print its output
partition  run one partitioning scheme, print placement and cycles
compare    run all four Table-1 schemes, print the comparison table
bench      list or evaluate the bundled benchmark suite (--all sweeps
           every benchmark x scheme cell in parallel)
lint       static analysis: IR lint rules + partition validity checking
config     show the resolved RunConfig for a flag combination
cache      artifact-cache maintenance: stats / gc / clear
serve      run the partitioning job server (HTTP, stdlib only)
submit     submit a job to a running server and await its result

Exit codes (uniform across partition/compare/bench/lint):

- ``0`` — success, the requested work completed as asked
- ``1`` — degraded but survived: a scheme or the profiler fell down
  the resilience ladder (``RunReport.outcome_state()``), a sweep cell
  degraded, or lint found findings
- ``2`` — hard failure: ladder exhausted, partition validity violated,
  or the invocation itself was invalid
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import re
import sys
from typing import List, NoReturn, Optional

from .bench import all_benchmarks, get as get_benchmark, names as bench_names
from .evalmodel import format_table
from .exec.engine import SWEEP_SCHEMES
from .exec.runconfig import (
    CACHE_POLICIES, MACHINE_PRESETS, POINTSTO_TIERS, PROFILE_MODES, SCHEMES,
    RunConfig,
)
from .ir import print_module
from .ir.serialize import dumps
from .lang import compile_source
from .pipeline import Pipeline, PreparedProgram
from .profiler import MAX_STEPS, Interpreter
from .resilience import LadderExhausted, RunReport

#: Uniform exit codes (documented in README).
EXIT_OK = 0
EXIT_DEGRADED = 1
EXIT_HARD_FAILURE = 2

#: The one exit rule: a run's, sweep cell's or job's terminal state ->
#: exit code; any state not named here is a hard failure.
STATE_EXIT_CODES = {"ok": EXIT_OK, "done": EXIT_OK, "degraded": EXIT_DEGRADED}


def _exit_code(state: str) -> int:
    return STATE_EXIT_CODES.get(state, EXIT_HARD_FAILURE)


def _read_source(path: str) -> str:
    """The MiniC program at ``path``: ``-`` reads stdin, extensionless
    paths resolve (``examples/quickstart``), and an examples/*.py script
    yields its module-level SOURCE block.  An unreadable file or a script
    without that block is an invalid invocation: one stderr line, exit 2.
    """
    if path == "-":
        return sys.stdin.read()
    path = next(
        (p for p in (path, path + ".py", path + ".mc", path + ".minic")
         if os.path.exists(p)),
        path,
    )
    try:
        with open(path) as handle:
            text = handle.read()
    except OSError as exc:
        _invalid_invocation(f"cannot read {path}: {exc.strerror}")
    if not path.endswith(".py"):
        return text
    match = re.search(r'SOURCE\s*=\s*"""(.*?)"""', text, re.DOTALL)
    if match is None:
        _invalid_invocation(
            f"{path}: no MiniC SOURCE = \"\"\"...\"\"\" block found"
        )
    return match.group(1)


def _invalid_invocation(message: str) -> NoReturn:
    print(f"repro: error: {message}", file=sys.stderr)
    raise SystemExit(EXIT_HARD_FAILURE)


def _add_compile_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--unroll", type=int, default=0, metavar="N",
                        help="unroll factor for counted loops (0 = off)")
    parser.add_argument("--if-convert", action="store_true",
                        help="if-convert small control diamonds")
    parser.add_argument("--optimize", action="store_true",
                        help="run constant folding / copy-prop / CSE / DCE")


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    """The result-affecting RunConfig knobs: machine, latency, points-to
    tier, profile source and seed."""
    parser.add_argument("--latency", type=int, default=5, metavar="CYCLES",
                        help="intercluster move latency (default 5)")
    parser.add_argument("--machine", default="two_cluster",
                        choices=list(MACHINE_PRESETS),
                        help="machine preset (default two_cluster, the "
                        "paper's evaluation configuration)")
    parser.add_argument("--pointsto", dest="pointsto_tier",
                        default="andersen", choices=list(POINTSTO_TIERS),
                        help="points-to precision tier annotating the "
                        "memory ops (default andersen; field adds "
                        "field-sensitivity, cs adds 1-CFA call-site "
                        "context sensitivity on top)")
    parser.add_argument("--profile", default="dynamic",
                        choices=list(PROFILE_MODES),
                        help="profile source for the partitioners: "
                        "'dynamic' interprets the program (the paper's "
                        "execution profiling), 'static' derives weights "
                        "and access regions from abstract interpretation "
                        "with zero interpreter runs")
    parser.add_argument("--seed", type=int, default=0, metavar="N",
                        help="base seed for the randomized partitioners "
                        "(part of the artifact-cache key)")


def _add_exec_flags(parser: argparse.ArgumentParser) -> None:
    """The normalized flag set every evaluating subcommand accepts."""
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="worker processes for sweeps (default: "
                        "os.cpu_count())")
    parser.add_argument("--run-report", metavar="PATH",
                        help="write a JSON report of the run (attempts, "
                        "faults, fallbacks, cache events, wall clocks) "
                        "to PATH")
    parser.add_argument("--cache", default="off",
                        choices=list(CACHE_POLICIES),
                        help="artifact-cache policy (default off; 'on' "
                        "reuses profiles, points-to solutions and scheme "
                        "outcomes across runs)")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="artifact-cache root (default "
                        "$REPRO_CACHE_DIR or ~/.cache/repro)")


def _add_resilience_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--max-seconds", type=float, default=None,
                        metavar="S",
                        help="wall-clock budget: partitioners return their "
                        "best-so-far result once it expires (anytime mode)")
    parser.add_argument("--retries", type=int, default=None, metavar="N",
                        help="re-run a failed scheme N more times with a "
                        "reseeded partitioner before falling back")
    parser.add_argument("--fallback", action="store_true",
                        help="on failure, degrade down the quality ladder "
                        "gdp -> profilemax -> naive -> unified")
    parser.add_argument("--fault-spec", metavar="SPEC",
                        help="inject deterministic faults, e.g. "
                        "'seed=7;raise:gdp@1' (see DESIGN.md for the "
                        "grammar)")


def _config_from_args(args, **overrides) -> RunConfig:
    """The resolved RunConfig for a parsed flag set: the CLI base (no
    fallback), then every parsed flag named after a RunConfig field, then
    ``overrides``.

    Commands that run schemes (those taking ``--verify-partition``) also
    validate every attempt whenever a resilience flag is given: a fault
    or an anytime budget must not slip an invalid partition through.
    """
    fields = {field.name for field in dataclasses.fields(RunConfig)}
    flags = {
        name: value for name, value in vars(args).items()
        if name in fields and value is not None
    }
    resilience = getattr(args, "fallback", False) or any(
        getattr(args, flag, None) is not None
        for flag in ("max_seconds", "retries", "run_report", "fault_spec")
    )
    validate = getattr(args, "verify_partition", False) or (
        hasattr(args, "verify_partition") and resilience
    )
    return RunConfig(**{
        "fallback": False, **flags, "validate": bool(validate), **overrides
    })


def _save_run_report(args, report) -> None:
    """Write ``report`` (a RunReport, lint report or SweepResult) to
    ``--run-report`` when one was given."""
    if getattr(args, "run_report", None):
        with open(args.run_report, "w") as handle:
            handle.write(report.to_json())
            handle.write("\n")
        print(f"[run report written to {args.run_report}]")


def _compile_module(args, source: str):
    """Compile ``source`` as the frontend flags say, optimizing it when
    ``--optimize`` is given (shared by compile, run and lint)."""
    module = compile_source(
        source, args.name,
        unroll_factor=args.unroll, if_convert=args.if_convert,
    )
    if args.optimize:
        from .opt import optimize_module

        optimize_module(module)
    return module


def _compile(args) -> int:
    module = _compile_module(args, _read_source(args.file))
    text = print_module(module) if args.pretty else dumps(module)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
    else:
        print(text)
    return EXIT_OK


def _run(args) -> int:
    module = _compile_module(args, _read_source(args.file))
    interp = Interpreter(module, max_steps=args.max_steps)
    result = interp.run()
    for value in interp.profile.output:
        print(value)
    print(f"[exit {result}; {interp.steps} operations executed]")
    return EXIT_OK


def _print_precision(prepared: PreparedProgram) -> None:
    print(f"pointsto: {prepared.pointsto.stats().describe()}")


def _run_schemes(args) -> int:
    """``partition`` (the requested scheme), ``compare`` and ``bench
    NAME`` (every Table-1 scheme): one prepare, one ``run_all``, and the
    exit code of the run report's outcome state."""
    config = _config_from_args(args)
    source = (get_benchmark(args.name).source if args.command == "bench"
              else _read_source(args.file))
    pipe = Pipeline(config)
    report = RunReport()
    prepared = pipe.prepare(source, args.name, report)
    report.record_pointsto(
        prepared.pointsto_tier, prepared.pointsto.stats().to_dict()
    )
    schemes = [args.scheme] if args.command == "partition" else SWEEP_SCHEMES
    try:
        outcomes = pipe.run_all(prepared, schemes, report)
    except LadderExhausted as exc:
        print(exc)
    else:
        for outcome in outcomes.values():
            if outcome.roofline:
                report.record_roofline(outcome.scheme, outcome.roofline)
        if args.command == "partition":
            _print_partition(config, prepared, outcomes[args.scheme], report)
        elif args.command == "compare":
            _print_comparison(prepared, outcomes)
        else:
            _print_relative(args, prepared, outcomes)
    _save_run_report(args, report)
    return _exit_code(report.outcome_state())


def _print_partition(config, prepared, outcome, report) -> None:
    if outcome.fell_back:
        print(f"scheme:  {outcome.scheme} (fallback from {outcome.requested})")
    else:
        print(f"scheme:  {outcome.scheme}")
    if config.profile == "dynamic" and prepared.profile.is_static():
        print("profile: static (fallback from dynamic)")
    else:
        print(f"profile: {config.profile}")
    _print_precision(prepared)
    print(f"cycles:  {outcome.cycles:.0f}")
    print(f"dynamic intercluster moves: {outcome.dynamic_moves:.0f}")
    roofline = outcome.roofline
    if roofline:
        print(f"roofline: {roofline['total_traffic_bytes']:.0f} bytes moved "
              f"vs {roofline['lower_bound_bytes']:.0f} I/O lower bound "
              f"(x{roofline['ratio']:.2f} from optimum)")
    summary = report.to_dict()["summary"]
    print(f"attempts: {summary['attempts']}  faults: {summary['faults']}  "
          f"fallbacks: {summary['fallbacks']}")
    if outcome.object_home:
        print("object placement:")
        for obj, cluster in sorted(outcome.object_home.items()):
            size = prepared.objects[obj].size
            print(f"  cluster {cluster}: {obj} ({size} bytes)")


def _print_comparison(prepared, outcomes) -> None:
    base = outcomes["unified"].cycles
    rows = [
        [
            name, out.scheme if out.fell_back else "", f"{out.cycles:.0f}",
            f"{base / out.cycles:.3f}" if out.cycles else "-",
            f"{out.dynamic_moves:.0f}",
            f"{out.roofline['ratio']:.2f}" if out.roofline else "-",
        ]
        for name, out in outcomes.items()
    ]
    _print_precision(prepared)
    print(format_table(
        ["scheme", "ran as", "cycles", "vs unified", "dyn moves",
         "x-roofline"], rows
    ))


def _print_relative(args, prepared, outcomes) -> None:
    """``bench NAME``: every scheme's speed relative to unified memory."""
    base = outcomes["unified"].cycles
    rows = [
        [name, f"{base / out.cycles if out.cycles else 0.0:.3f}"]
        for name, out in outcomes.items() if name != "unified"
    ]
    print(f"{args.name} @ {args.latency}-cycle move latency "
          f"(relative to unified memory):")
    _print_precision(prepared)
    print(format_table(["scheme", "vs unified"], rows))


def _lint(args) -> int:
    from .lint import (
        Severity,
        check_region_outcome,
        check_scheme_outcome,
        lint_report,
    )

    config = _config_from_args(args)
    source = _read_source(args.file)
    module = _compile_module(args, source)

    profile = None
    if args.dynamic_oracle:
        # The oracle joins on op uids, so interpret the exact module
        # instance being linted (not a recompile).
        interp = Interpreter(module, max_steps=args.max_steps)
        interp.run()
        profile = interp.profile

    machine = config.build_machine()
    try:
        report = lint_report(
            module, machine=machine, only=args.only or None, profile=profile
        )
    except ValueError as exc:  # unknown pass name in --only
        print(exc, file=sys.stderr)
        return EXIT_HARD_FAILURE

    if args.verify_partition:
        pipe = Pipeline(config.replace(validate=False), machine=machine)
        prepared = pipe.prepare(source, args.name)
        outcome = pipe.run(prepared, args.scheme)
        report.extend(check_scheme_outcome(prepared, outcome))
        report.extend(check_region_outcome(prepared, outcome))

    if args.format == "json":
        print(report.to_json())
    elif args.format == "sarif":
        print(report.to_sarif())
    else:
        print(report.render_text())
    _save_run_report(args, report)
    if report.has_errors:
        return EXIT_DEGRADED
    if args.strict and any(
        d.severity is Severity.WARNING for d in report
    ):
        return EXIT_DEGRADED
    return EXIT_OK


def _bench(args) -> int:
    if args.name is not None and args.name not in bench_names():
        _invalid_invocation(f"unknown benchmark {args.name!r}")
    if args.all:
        return _bench_sweep(args)
    if args.name is None:
        rows = [
            [b.name, b.category, b.description] for b in all_benchmarks()
        ]
        print(format_table(["benchmark", "category", "description"], rows))
        return EXIT_OK
    return _run_schemes(args)


def _bench_sweep(args) -> int:
    """Run the Table-1 sweep (all benchmarks x all schemes) in parallel."""
    from .exec.engine import ParallelRunner

    config = _config_from_args(args)
    benches = [args.name] if args.name else bench_names()
    runner = ParallelRunner(config)
    result = runner.sweep(benches, latencies=[args.latency])
    print(result.render_table())
    _save_run_report(args, result)
    # The worst cell decides: exit codes rank states by severity.
    return max((_exit_code(cell["status"]) for cell in result.cells),
               default=EXIT_OK)


def _config_show(args) -> int:
    config = _config_from_args(args)
    if args.format == "json":
        print(config.to_json())
    else:
        print(config.describe())
    return EXIT_OK


def _cache_handle(args):
    from .exec.cache import ArtifactCache

    return ArtifactCache(args.cache_dir, "on")


def _cache_stats(args) -> int:
    stats = _cache_handle(args).stats()
    if args.format == "json":
        print(json.dumps(stats, indent=2, sort_keys=True))
        return EXIT_OK
    print(f"root:    {stats['root']}")
    print(f"entries: {stats['entries']} ({stats['bytes']} bytes)")
    for kind, slot in sorted(stats["disk"].items()):
        print(f"  {kind}: {slot['entries']} entries, {slot['bytes']} bytes")
    quarantine = stats["quarantine"]
    print(f"quarantine: {quarantine['entries']} corrupt entries "
          f"({quarantine['bytes']} bytes)")
    return EXIT_OK


def _cache_gc(args) -> int:
    result = _cache_handle(args).gc(
        max_age_days=args.max_age_days, max_bytes=args.max_bytes,
        grace_seconds=args.grace_seconds,
    )
    print(f"removed {result['removed']} entries, kept {result['kept']}")
    return EXIT_OK


def _serve(args) -> int:
    import signal

    from .service import Broker, ServiceServer

    broker = Broker(
        config=_config_from_args(args), workers=args.workers,
        quota=args.quota, max_requeues=args.max_requeues,
        journal_dir=args.journal, fsync=args.fsync,
        max_depth=args.max_depth, tenant_pending=args.tenant_pending,
    )
    server = ServiceServer(
        broker=broker, host=args.host, port=args.port, verbose=args.verbose
    )
    # The resolved port matters when --port 0 asked for an ephemeral one
    # (tests and check.sh parse this line).
    print(f"serving on {server.url} "
          f"({args.workers} worker(s), cache {args.cache})", flush=True)
    if args.journal:
        recovery = broker.stats()["recovery"]
        print(f"journal {args.journal} (fsync {args.fsync}): recovered "
              f"{recovery['recovered']} job(s), requeued "
              f"{recovery['requeued']}", flush=True)

    def _drain_and_exit(_signum, _frame):
        # SIGTERM is the orchestrator's "please go away": stop admission,
        # finish or journal-park admitted work, exit 0.
        server.request_shutdown(drain=True)

    try:
        signal.signal(signal.SIGTERM, _drain_and_exit)
    except ValueError:  # pragma: no cover - non-main-thread embedding
        pass
    server.serve_forever()
    return EXIT_OK


def _submit(args) -> int:
    from .service import ServiceClient, ServiceError

    if (args.file is None) == (args.bench is None):
        print("pass a source file or --bench NAME (not both)",
              file=sys.stderr)
        return EXIT_HARD_FAILURE
    client = ServiceClient(args.url, timeout=args.timeout)
    config = _config_from_args(args, cache="on")
    kwargs = dict(
        config=config.to_dict(), tenant=args.tenant, priority=args.priority
    )
    try:
        if args.bench:
            descriptor = client.submit(bench=args.bench, **kwargs)
        else:
            descriptor = client.submit(
                source=_read_source(args.file), name=args.name, **kwargs
            )
        job_id = descriptor["id"]
        if descriptor.get("coalesced_onto"):
            print(f"[coalesced onto in-flight job {job_id}]")
        else:
            print(f"[submitted job {job_id}]")
        if args.no_wait:
            print(json.dumps(descriptor, indent=2, sort_keys=True))
            return EXIT_OK
        if args.follow:
            for event in client.events(job_id, follow=True,
                                       timeout=args.timeout):
                print(json.dumps(event, sort_keys=True))
        final = client.wait(job_id, timeout=args.timeout)
    except ServiceError as exc:
        detail = f" (fields: {', '.join(exc.fields)})" if exc.fields else ""
        print(f"service error [{exc.code}]: {exc}{detail}", file=sys.stderr)
        return EXIT_HARD_FAILURE
    except (TimeoutError, OSError) as exc:
        print(f"service unreachable or timed out: {exc}", file=sys.stderr)
        return EXIT_HARD_FAILURE
    finally:
        client.close()
    print(json.dumps(final, indent=2, sort_keys=True))
    return _exit_code(final["state"])


def _cache_clear(args) -> int:
    removed = _cache_handle(args).clear()
    print(f"removed {removed} entries")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Compiler-directed data partitioning for multicluster "
        "processors (CGO 2006 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile MiniC to IR")
    p.add_argument("file", help="MiniC source file ('-' for stdin)")
    p.add_argument("-o", "--output", help="write IR here instead of stdout")
    p.add_argument("--name", default="module")
    p.add_argument("--pretty", action="store_true",
                   help="human-readable form instead of serialized IR")
    _add_compile_flags(p)
    p.set_defaults(func=_compile)

    p = sub.add_parser("run", help="compile and interpret a program")
    p.add_argument("file")
    p.add_argument("--name", default="program")
    p.add_argument("--max-steps", type=int, default=MAX_STEPS)
    _add_compile_flags(p)
    p.set_defaults(func=_run)

    for command, help_text in (("partition", "run one partitioning scheme"),
                               ("compare", "compare all four schemes")):
        p = sub.add_parser(command, help=help_text)
        p.add_argument("file")
        p.add_argument("--name", default="program")
        if command == "partition":
            p.add_argument("--scheme", default="gdp", choices=list(SCHEMES))
        p.add_argument("--verify-partition", action="store_true",
                       help="check every scheme attempt against the paper's "
                       "invariants (an invalid attempt counts as failed)")
        _add_run_flags(p)
        _add_exec_flags(p)
        _add_resilience_flags(p)
        p.set_defaults(func=_run_schemes)

    p = sub.add_parser("bench", help="list or evaluate bundled benchmarks")
    p.add_argument("name", nargs="?", default=None)
    p.add_argument("--all", action="store_true",
                   help="run every benchmark x scheme cell as one parallel "
                   "sweep (honours --jobs and the artifact cache)")
    _add_run_flags(p)
    _add_exec_flags(p)
    p.set_defaults(func=_bench)

    p = sub.add_parser(
        "lint",
        help="run static analysis (IR lint rules, optional partition "
        "validity checks)",
    )
    p.add_argument("file", help="MiniC source, '-' for stdin, or an "
                   "examples/*.py script with a SOURCE block")
    p.add_argument("--name", default="program")
    p.add_argument("--format", default="text",
                   choices=["text", "json", "sarif"],
                   help="report format: human text, stable JSON, or "
                   "SARIF 2.1.0 for CI annotation tooling")
    p.add_argument("--dynamic-oracle", action="store_true",
                   help="interpret the program and check every "
                   "profiler-observed memory target against every "
                   "points-to tier (refinement differ oracle)")
    p.add_argument("--max-steps", type=int, default=MAX_STEPS,
                   help="interpreter step budget for --dynamic-oracle")
    p.add_argument("--strict", action="store_true",
                   help="exit non-zero on warnings too, not just errors")
    p.add_argument("--only", action="append", metavar="PASS",
                   help="run only the named lint pass (repeatable)")
    p.add_argument("--verify-partition", action="store_true",
                   help="also run a scheme and check the partition "
                   "validity invariants on its output")
    p.add_argument("--scheme", default="gdp",
                   choices=list(SCHEMES),
                   help="scheme for --verify-partition (default gdp)")
    _add_compile_flags(p)
    _add_run_flags(p)
    _add_exec_flags(p)
    p.set_defaults(func=_lint)

    p = sub.add_parser(
        "config", help="inspect the resolved execution configuration"
    )
    config_sub = p.add_subparsers(dest="config_command", required=True)
    p = config_sub.add_parser(
        "show", help="print the RunConfig a flag combination resolves to"
    )
    p.add_argument("--scheme", default="gdp", choices=list(SCHEMES))
    p.add_argument("--format", default="text", choices=["text", "json"])
    p.add_argument("--verify-partition", action="store_true",
                   help="resolve with validation enabled")
    _add_run_flags(p)
    _add_exec_flags(p)
    _add_resilience_flags(p)
    p.set_defaults(func=_config_show)

    p = sub.add_parser("cache", help="artifact-cache maintenance")
    cache_sub = p.add_subparsers(dest="cache_command", required=True)
    c = cache_sub.add_parser("stats", help="session counters and disk use")
    c.add_argument("--cache-dir", default=None, metavar="DIR")
    c.add_argument("--format", default="text", choices=["text", "json"])
    c.set_defaults(func=_cache_stats)
    c = cache_sub.add_parser(
        "gc", help="drop stale-schema, aged, or size-excess entries"
    )
    c.add_argument("--cache-dir", default=None, metavar="DIR")
    c.add_argument("--max-age-days", type=float, default=None, metavar="D",
                   help="remove entries older than D days")
    c.add_argument("--max-bytes", type=int, default=None, metavar="B",
                   help="remove least-recently-used entries until the "
                   "store fits in B")
    c.add_argument("--grace-seconds", type=float, default=0.0, metavar="S",
                   help="never evict entries written within the last S "
                   "seconds (protects concurrent writers; default 0)")
    c.set_defaults(func=_cache_gc)
    c = cache_sub.add_parser("clear", help="delete every stored artifact")
    c.add_argument("--cache-dir", default=None, metavar="DIR")
    c.set_defaults(func=_cache_clear)

    p = sub.add_parser(
        "serve", help="run the partitioning job server (HTTP, stdlib only)"
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8642,
                   help="listen port (0 binds an ephemeral port; the "
                   "resolved URL is printed on startup)")
    p.add_argument("--workers", type=int, default=2, metavar="N",
                   help="supervised worker threads (default 2)")
    p.add_argument("--quota", type=int, default=None, metavar="N",
                   help="per-tenant in-flight job cap (default unbounded)")
    p.add_argument("--max-requeues", type=int, default=1, metavar="N",
                   help="requeues before a job that keeps losing its "
                   "worker is failed (default 1)")
    p.add_argument("--journal", default=None, metavar="DIR",
                   help="write-ahead journal directory: every lifecycle "
                   "transition is logged before it is acked, and a "
                   "restart on the same DIR recovers the job table "
                   "(requeueing whatever a crash interrupted)")
    p.add_argument("--fsync", default="always",
                   choices=["always", "interval", "never"],
                   help="journal durability policy (default always: an "
                   "acked submission survives kill -9)")
    p.add_argument("--max-depth", type=int, default=None, metavar="N",
                   help="queue-depth admission bound; submissions past "
                   "it get 429 + Retry-After (default unbounded)")
    p.add_argument("--tenant-pending", type=int, default=None, metavar="N",
                   help="per-tenant bound on non-terminal jobs, same "
                   "429 contract (default unbounded)")
    p.add_argument("--cache", default="on", choices=list(CACHE_POLICIES),
                   help="server-side artifact-cache policy (default on; "
                   "the server's cache settings override submissions')")
    p.add_argument("--cache-dir", default=None, metavar="DIR")
    p.add_argument("--verbose", action="store_true",
                   help="log each HTTP request to stderr")
    p.set_defaults(func=_serve)

    p = sub.add_parser(
        "submit", help="submit a job to a running server and await it"
    )
    p.add_argument("file", nargs="?", default=None,
                   help="MiniC source file ('-' for stdin); omit with "
                   "--bench")
    p.add_argument("--url", default="http://127.0.0.1:8642",
                   help="server base URL (default http://127.0.0.1:8642)")
    p.add_argument("--bench", default=None, metavar="NAME",
                   help="submit a registry benchmark instead of a file")
    p.add_argument("--name", default="program")
    p.add_argument("--tenant", default="default",
                   help="tenant id for fair scheduling and quotas")
    p.add_argument("--priority", type=int, default=0,
                   help="higher runs earlier (default 0)")
    p.add_argument("--scheme", default="gdp", choices=list(SCHEMES))
    p.add_argument("--follow", action="store_true",
                   help="stream the job's NDJSON lifecycle events while "
                   "it runs")
    p.add_argument("--no-wait", action="store_true",
                   help="print the submit reply and exit immediately")
    p.add_argument("--timeout", type=float, default=300.0, metavar="S",
                   help="overall wait budget (default 300s)")
    _add_run_flags(p)
    _add_resilience_flags(p)
    p.set_defaults(func=_submit)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:  # output piped into head etc.
        return EXIT_OK


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
