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
- ``1`` — degraded but survived: a scheme fell down the resilience
  ladder, a sweep cell degraded, or lint found findings
- ``2`` — hard failure: ladder exhausted, partition validity violated,
  or the invocation itself was invalid
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import List, Optional

from .bench import all_benchmarks, get as get_benchmark
from .evalmodel import format_table
from .exec.runconfig import CACHE_POLICIES, MACHINE_PRESETS, SCHEMES, RunConfig
from .ir import print_module
from .ir.serialize import dumps
from .lang import compile_source
from .pipeline import Pipeline, PreparedProgram
from .profiler import Interpreter
from .resilience import LadderExhausted, RunReport

#: Uniform exit codes (documented in README).
EXIT_OK = 0
EXIT_DEGRADED = 1
EXIT_HARD_FAILURE = 2


def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path) as handle:
        text = handle.read()
    if path.endswith(".py"):
        # Example scripts (examples/*.py) embed their program in a
        # module-level SOURCE triple-quoted string; lint them directly.
        match = re.search(r'SOURCE\s*=\s*"""(.*?)"""', text, re.DOTALL)
        if match is None:
            raise SystemExit(
                f"{path}: no MiniC SOURCE = \"\"\"...\"\"\" block found"
            )
        return match.group(1)
    return text


def _add_compile_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--unroll", type=int, default=0, metavar="N",
                        help="unroll factor for counted loops (0 = off)")
    parser.add_argument("--if-convert", action="store_true",
                        help="if-convert small control diamonds")
    parser.add_argument("--optimize", action="store_true",
                        help="run constant folding / copy-prop / CSE / DCE")


def _add_machine_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--latency", type=int, default=5, metavar="CYCLES",
                        help="intercluster move latency (default 5)")
    parser.add_argument("--machine", default="two_cluster",
                        choices=list(MACHINE_PRESETS),
                        help="machine preset (default two_cluster, the "
                        "paper's evaluation configuration)")


def _add_pointsto_flag(parser: argparse.ArgumentParser) -> None:
    from .analysis import TIERS

    parser.add_argument("--pointsto", default="andersen", choices=list(TIERS),
                        help="points-to precision tier annotating the "
                        "memory ops (default andersen; field adds "
                        "field-sensitivity, cs adds 1-CFA call-site "
                        "context sensitivity on top)")


def _add_profile_flag(parser: argparse.ArgumentParser) -> None:
    from .exec.runconfig import PROFILE_MODES

    parser.add_argument("--profile", default="dynamic",
                        choices=list(PROFILE_MODES),
                        help="profile source for the partitioners: "
                        "'dynamic' interprets the program (the paper's "
                        "execution profiling), 'static' derives weights "
                        "and access regions from abstract interpretation "
                        "with zero interpreter runs")


def _add_exec_flags(parser: argparse.ArgumentParser) -> None:
    """The normalized flag set every evaluating subcommand accepts."""
    parser.add_argument("--seed", type=int, default=0, metavar="N",
                        help="base seed for the randomized partitioners "
                        "(part of the artifact-cache key)")
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
    """The resolved RunConfig for a parsed flag set (missing flags fall
    back to the RunConfig field defaults).

    Commands that run schemes (those taking ``--verify-partition``) also
    validate every attempt whenever a resilience flag is given: a fault
    or an anytime budget must not slip an invalid partition through.
    """
    retries = getattr(args, "retries", None)
    resilience = getattr(args, "fallback", False) or any(
        getattr(args, flag, None) is not None
        for flag in ("max_seconds", "retries", "run_report", "fault_spec")
    )
    validate = getattr(args, "verify_partition", False) or (
        hasattr(args, "verify_partition") and resilience
    )
    kwargs = dict(
        scheme=getattr(args, "scheme", "gdp"),
        pointsto_tier=getattr(args, "pointsto", "andersen"),
        profile=getattr(args, "profile", "dynamic"),
        machine=getattr(args, "machine", "two_cluster"),
        latency=getattr(args, "latency", 5),
        seed=getattr(args, "seed", 0),
        max_seconds=getattr(args, "max_seconds", None),
        retries=retries if retries is not None else 1,
        fallback=bool(getattr(args, "fallback", False)),
        fault_spec=getattr(args, "fault_spec", None),
        validate=bool(validate),
        jobs=getattr(args, "jobs", None),
        cache=getattr(args, "cache", "off"),
        cache_dir=getattr(args, "cache_dir", None),
    )
    kwargs.update(overrides)
    return RunConfig(**kwargs)


def _save_run_report(args, report) -> None:
    if getattr(args, "run_report", None):
        report.save(args.run_report)
        print(f"[run report written to {args.run_report}]")


def _resolve_path(path: str) -> str:
    """Allow extensionless paths: ``repro lint examples/quickstart``."""
    import os

    if path == "-" or os.path.exists(path):
        return path
    for suffix in (".py", ".mc", ".minic"):
        if os.path.exists(path + suffix):
            return path + suffix
    return path  # let open() raise the usual error


def _compile_module(args):
    """Compile ``args.file`` as the frontend flags say, optimizing it
    when ``--optimize`` is given (shared by compile, run and lint)."""
    module = compile_source(
        _read_source(_resolve_path(args.file)), args.name,
        unroll_factor=args.unroll, if_convert=args.if_convert,
    )
    if args.optimize:
        from .opt import optimize_module

        optimize_module(module)
    return module


def _compile(args) -> int:
    module = _compile_module(args)
    text = print_module(module) if args.pretty else dumps(module)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
    else:
        print(text)
    return EXIT_OK


def _run(args) -> int:
    module = _compile_module(args)
    interp = Interpreter(module, max_steps=args.max_steps)
    result = interp.run()
    for value in interp.profile.output:
        print(value)
    print(f"[exit {result}; {interp.steps} operations executed]")
    return EXIT_OK


def _print_precision(prepared: PreparedProgram) -> None:
    print(f"pointsto: {prepared.pointsto.stats().describe()}")


def _print_roofline(roofline) -> None:
    """One-line distance-from-data-movement-optimum summary."""
    if not roofline:
        return
    print(
        f"roofline: {roofline['total_traffic_bytes']:.0f} bytes moved "
        f"vs {roofline['lower_bound_bytes']:.0f} I/O lower bound "
        f"(x{roofline['ratio']:.2f} from optimum)"
    )


def _prepare(args, config: RunConfig):
    """(pipeline, prepared, report, profile degraded?) for a file."""
    pipe = Pipeline(config)
    report = RunReport()
    prepared = pipe.prepare(_read_source(args.file), args.name, report)
    report.record_pointsto(
        prepared.pointsto_tier, prepared.pointsto.stats().to_dict()
    )
    degraded = config.profile == "dynamic" and prepared.profile.is_static()
    return pipe, prepared, report, degraded


def _partition(args) -> int:
    config = _config_from_args(args)
    pipe, prepared, report, profile_degraded = _prepare(args, config)
    try:
        outcome = pipe.run(prepared, args.scheme, report)
    except LadderExhausted as exc:
        print(exc)
        _save_run_report(args, report)
        return EXIT_HARD_FAILURE
    if outcome.roofline:
        report.record_roofline(outcome.scheme, outcome.roofline)
    if outcome.fell_back:
        print(f"scheme:  {outcome.scheme} (fallback from {outcome.requested})")
    else:
        print(f"scheme:  {outcome.scheme}")
    if profile_degraded:
        print("profile: static (fallback from dynamic)")
    else:
        print(f"profile: {config.profile}")
    _print_precision(prepared)
    print(f"cycles:  {outcome.cycles:.0f}")
    print(f"dynamic intercluster moves: {outcome.dynamic_moves:.0f}")
    _print_roofline(outcome.roofline)
    summary = report.to_dict()["summary"]
    print(f"attempts: {summary['attempts']}  faults: {summary['faults']}  "
          f"fallbacks: {summary['fallbacks']}")
    if outcome.object_home:
        print("object placement:")
        for obj, cluster in sorted(outcome.object_home.items()):
            size = prepared.objects[obj].size
            print(f"  cluster {cluster}: {obj} ({size} bytes)")
    _save_run_report(args, report)
    return EXIT_DEGRADED if outcome.fell_back or profile_degraded else EXIT_OK


def _compare(args) -> int:
    config = _config_from_args(args)
    pipe, prepared, report, degraded = _prepare(args, config)
    try:
        outcomes = pipe.run_all(prepared, report=report)
    except LadderExhausted as exc:
        print(exc)
        _save_run_report(args, report)
        return EXIT_HARD_FAILURE
    base = outcomes["unified"].cycles
    rows = []
    for name, out in outcomes.items():
        degraded = degraded or out.fell_back
        if out.roofline:
            report.record_roofline(name, out.roofline)
        rows.append([
            name, out.scheme if out.fell_back else "", f"{out.cycles:.0f}",
            f"{base / out.cycles:.3f}" if out.cycles else "-",
            f"{out.dynamic_moves:.0f}",
            f"{out.roofline['ratio']:.2f}" if out.roofline else "-",
        ])
    _print_precision(prepared)
    print(format_table(
        ["scheme", "ran as", "cycles", "vs unified", "dyn moves",
         "x-roofline"], rows
    ))
    _save_run_report(args, report)
    return EXIT_DEGRADED if degraded else EXIT_OK


def _lint(args) -> int:
    from .analysis.pointsto import TIERS
    from .lint import (
        DETERMINISTIC_COLUMNS,
        Severity,
        check_region_outcome,
        check_scheme_outcome,
        lint_with_stats,
    )

    config = _config_from_args(args)
    module = _compile_module(args)

    profile = None
    if args.dynamic_oracle:
        # The oracle joins on op uids, so interpret the exact module
        # instance being linted (not a recompile).
        interp = Interpreter(module, max_steps=args.max_steps)
        interp.run()
        profile = interp.profile

    machine = config.build_machine()
    try:
        report, ctx = lint_with_stats(
            module, machine=machine, only=args.only or None, profile=profile
        )
    except ValueError as exc:  # unknown pass name in --only
        print(exc, file=sys.stderr)
        return EXIT_HARD_FAILURE

    # Per-tier precision stats ride on the report (deterministic columns
    # only, so --format json output is byte-stable across runs).  The
    # context memoizes the solves the differ pass already performed, so
    # this costs nothing beyond any tier the passes skipped.
    for tier in TIERS:
        stats = ctx.pointsto(tier).stats().to_dict()
        report.stats[tier] = {c: stats[c] for c in DETERMINISTIC_COLUMNS}

    if args.verify_partition:
        prepared = PreparedProgram.from_source(
            _read_source(_resolve_path(args.file)), args.name,
            config=config,
        )
        pipe = Pipeline(config.replace(validate=False), machine=machine)
        outcome = pipe.run(prepared, args.scheme)
        report.extend(check_scheme_outcome(prepared, outcome))
        report.extend(check_region_outcome(prepared, outcome))

    fmt = "json" if args.json else args.format
    if fmt == "json":
        print(report.to_json())
    elif fmt == "sarif":
        print(report.to_sarif())
    else:
        print(report.render_text())
    if args.run_report:
        with open(args.run_report, "w") as handle:
            handle.write(report.to_json())
            handle.write("\n")
        print(f"[run report written to {args.run_report}]")
    if report.has_errors:
        return EXIT_DEGRADED
    if args.strict and any(
        d.severity is Severity.WARNING for d in report
    ):
        return EXIT_DEGRADED
    return EXIT_OK


def _bench(args) -> int:
    if args.all:
        return _bench_sweep(args)
    if args.name is None:
        rows = [
            [b.name, b.category, b.description] for b in all_benchmarks()
        ]
        print(format_table(["benchmark", "category", "description"], rows))
        return EXIT_OK
    config = _config_from_args(args)
    bench = get_benchmark(args.name)
    pipe = Pipeline(config)
    prepared = pipe.prepare(bench.source, bench.name)
    rel = pipe.compare(prepared, schemes=("gdp", "profilemax", "naive"))
    rows = [[scheme, f"{value:.3f}"] for scheme, value in rel.items()]
    print(f"{bench.name} @ {args.latency}-cycle move latency "
          f"(relative to unified memory):")
    _print_precision(prepared)
    print(format_table(["scheme", "vs unified"], rows))
    return EXIT_OK


def _bench_sweep(args) -> int:
    """Run the Table-1 sweep (all benchmarks x all schemes) in parallel."""
    from .bench import names as bench_names
    from .exec.engine import ParallelRunner

    config = _config_from_args(args)
    benches = [args.name] if args.name else bench_names()
    runner = ParallelRunner(config)
    result = runner.sweep(benches, latencies=[args.latency])
    print(result.render_table())
    if args.run_report:
        result.save(args.run_report)
        print(f"[run report written to {args.run_report}]")
    counts = result.counts()
    if counts["failed"]:
        return EXIT_HARD_FAILURE
    if counts["degraded"]:
        return EXIT_DEGRADED
    return EXIT_OK


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

    config = RunConfig(cache=args.cache, cache_dir=args.cache_dir)
    broker = Broker(
        config=config, workers=args.workers, quota=args.quota,
        max_requeues=args.max_requeues,
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
    print(json.dumps(final, indent=2, sort_keys=True))
    if final["state"] == "done":
        return EXIT_OK
    if final["state"] == "degraded":
        return EXIT_DEGRADED
    return EXIT_HARD_FAILURE


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
    p.add_argument("--max-steps", type=int, default=50_000_000)
    _add_compile_flags(p)
    p.set_defaults(func=_run)

    p = sub.add_parser("partition", help="run one partitioning scheme")
    p.add_argument("file")
    p.add_argument("--name", default="program")
    p.add_argument("--scheme", default="gdp", choices=list(SCHEMES))
    p.add_argument("--verify-partition", action="store_true",
                   help="check every phase output against the paper's "
                   "invariants (fails on any violation)")
    _add_machine_flags(p)
    _add_pointsto_flag(p)
    _add_profile_flag(p)
    _add_exec_flags(p)
    _add_resilience_flags(p)
    p.set_defaults(func=_partition)

    p = sub.add_parser("compare", help="compare all four schemes")
    p.add_argument("file")
    p.add_argument("--name", default="program")
    p.add_argument("--verify-partition", action="store_true",
                   help="validate each scheme's phase outputs while running")
    _add_machine_flags(p)
    _add_pointsto_flag(p)
    _add_profile_flag(p)
    _add_exec_flags(p)
    _add_resilience_flags(p)
    p.set_defaults(func=_compare)

    p = sub.add_parser("bench", help="list or evaluate bundled benchmarks")
    p.add_argument("name", nargs="?", default=None)
    p.add_argument("--all", action="store_true",
                   help="run every benchmark x scheme cell as one parallel "
                   "sweep (honours --jobs and the artifact cache)")
    _add_machine_flags(p)
    _add_pointsto_flag(p)
    _add_profile_flag(p)
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
    p.add_argument("--json", action="store_true",
                   help="machine-readable report (stable ordering); "
                   "alias for --format json")
    p.add_argument("--format", default="text",
                   choices=["text", "json", "sarif"],
                   help="report format: human text, stable JSON, or "
                   "SARIF 2.1.0 for CI annotation tooling")
    p.add_argument("--dynamic-oracle", action="store_true",
                   help="interpret the program and check every "
                   "profiler-observed memory target against every "
                   "points-to tier (refinement differ oracle)")
    p.add_argument("--max-steps", type=int, default=50_000_000,
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
    _add_machine_flags(p)
    _add_pointsto_flag(p)
    _add_profile_flag(p)
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
    _add_machine_flags(p)
    _add_pointsto_flag(p)
    _add_profile_flag(p)
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
    _add_machine_flags(p)
    _add_pointsto_flag(p)
    _add_profile_flag(p)
    p.add_argument("--seed", type=int, default=0, metavar="N")
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
