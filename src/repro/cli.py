"""Command-line interface: ``python -m repro <command>``.

Commands mirror the benchmark pipeline of the paper's §4:

* ``generate`` — run the bitemporal data generator and write an archive;
* ``inspect``  — summarise an archive (header, Table 2 statistics);
* ``query``    — load a workload into one system and run SQL against it;
* ``bench``    — regenerate one experiment (table/figure) or all of them;
* ``verify``   — load a workload into a system and run the §4 temporal
  consistency checks;
* ``systems``  — print the §5.2 architecture cards;
* ``lint``     — static temporal-query diagnostics without executing;
* ``cache-stats`` — plan-cache hit rates after repeated workload passes;
* ``trace``    — run one statement and print its lifecycle span tree;
* ``metrics``  — engine metric counters after workload passes;
* ``bench-diff`` — compare two or more bench artifacts cell by cell
  (``--gate`` exits nonzero on regression, the CI perf gate);
* ``trend``    — fold a directory of artifacts into ``TREND.json`` plus a
  markdown trajectory report;
* ``flamegraph`` — folded stacks / SVG flamegraph / per-operator table
  from tracer spans (live run or a recorded JSONL file).

* ``stat-statements`` — pg_stat_statements-style per-fingerprint workload
  statistics after driving the benchmark queries;
* ``top`` — one-shot workload summary (hottest statements, key counters).
* ``health`` — markdown temporal-health report assembled by querying the
  ``repro_stat_*`` system views across archetypes (``--json`` writes a
  ``repro-health/v1`` artifact).

``bench --json PATH`` additionally writes a machine-readable
``BENCH_<experiment>.json`` artifact (schema ``repro-bench/v2``, see
:mod:`repro.bench.artifact`) so the repo accumulates a perf trajectory;
``bench --compare-to BASELINE.json`` prints the delta table against a
prior artifact inline after the run.  ``metrics --format openmetrics``
emits the registry plus top-K statement stats as a Prometheus-scrapable
text exposition.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from .bench import experiments as x
from .bench.report import format_cache_stats, format_lint_summary, format_metrics
from .bench.service import BenchmarkService
from .core.archive import ArchiveReader, write_archive
from .core.consistency import check_system
from .core.generator import BitemporalDataGenerator, GeneratorConfig
from .core.loader import Loader
from .core.stats import format_operations_table
from .systems import make_system

EXPERIMENTS = {
    "table1": lambda ctx: x.table1_scenario_mix(ctx["workload"]),
    "table2": lambda ctx: x.table2_operations(ctx["workload"]),
    "fig02": lambda ctx: x.fig02_basic_time_travel(ctx["systems"], ctx["workload"], ctx["service"]),
    "fig03": lambda ctx: x.fig03_index_impact(ctx["systems"], ctx["workload"], ctx["service"]),
    "fig04": lambda ctx: x.fig04_history_scaling(ctx["service"]),
    "fig05": lambda ctx: x.fig05_temporal_slicing(ctx["systems"], ctx["workload"], ctx["service"]),
    "fig06": lambda ctx: x.fig06_implicit_explicit(ctx["systems"], ctx["workload"], ctx["service"]),
    "fig07a": lambda ctx: x.fig07_tpch(ctx["systems"], ctx["workload"], ctx["service"], mode="app"),
    "fig07b": lambda ctx: x.fig07_tpch(ctx["systems"], ctx["workload"], ctx["service"], mode="sys"),
    "fig08": lambda ctx: x.fig08_key_in_time(ctx["systems"], ctx["workload"], ctx["service"]),
    "fig09": lambda ctx: x.fig09_time_restriction(ctx["systems"], ctx["workload"], ctx["service"]),
    "fig10": lambda ctx: x.fig10_version_restriction(ctx["systems"], ctx["workload"], ctx["service"]),
    "fig11": lambda ctx: x.fig11_value_in_time(ctx["systems"], ctx["workload"], ctx["service"]),
    "fig12": lambda ctx: x.fig12_keyrange_history_scaling(ctx["service"]),
    "fig13": lambda ctx: x.fig13_batch_size(ctx["service"]),
    "fig14": lambda ctx: x.fig14_range_timeslice(ctx["systems"], ctx["workload"], ctx["service"]),
    "fig15": lambda ctx: x.fig15_bitemporal(ctx["systems"], ctx["workload"], ctx["service"]),
    "fig16": lambda ctx: x.fig16_loading(ctx["workload"]),
    "joins": lambda ctx: x.join_ordering(ctx["systems"], ctx["workload"], ctx["service"]),
    "temporal-ops": lambda ctx: x.temporal_ops(ctx["systems"], ctx["workload"], ctx["service"]),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TPC-BiH bitemporal benchmark (EDBT 2014 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser("generate", help="generate a workload archive")
    generate.add_argument("--h", type=float, default=0.001)
    generate.add_argument("--m", type=float, default=0.0003)
    generate.add_argument("--seed", type=int, default=None)
    generate.add_argument("--out", default="tpcbih_archive.jsonl")

    inspect = sub.add_parser("inspect", help="summarise an archive")
    inspect.add_argument("archive")

    query = sub.add_parser("query", help="load a workload and run SQL")
    query.add_argument("--system", default="A", help="archetype A..E")
    query.add_argument("--h", type=float, default=0.001)
    query.add_argument("--m", type=float, default=0.0003)
    query.add_argument("--explain", action="store_true")
    query.add_argument(
        "--analyze",
        action="store_true",
        help="run the query and print per-operator row counts and timings",
    )
    query.add_argument("sql", help="SQL statement to execute")

    bench = sub.add_parser("bench", help="run one experiment (or 'all')")
    bench.add_argument("experiment", choices=sorted(EXPERIMENTS) + ["all"])
    bench.add_argument("--h", type=float, default=0.001)
    bench.add_argument("--m", type=float, default=0.0003)
    bench.add_argument("--out", default=None, help="also write report file(s) here")
    bench.add_argument(
        "--json", dest="json_path", default=None, metavar="PATH",
        help="write a machine-readable artifact (schema repro-bench/v2); "
        "a directory gets BENCH_<experiment>.json",
    )
    bench.add_argument(
        "--compare-to", dest="compare_to", default=None, metavar="BASELINE",
        help="print the delta table against this repro-bench artifact "
        "after the run (v1 and v2 both load)",
    )
    bench.add_argument(
        "--threshold", type=float, default=1.15,
        help="regression ratio for --compare-to classification "
        "(default %(default)s)",
    )
    bench.add_argument(
        "--no-stats", dest="no_stats", action="store_true",
        help="skip the post-load ANALYZE so multi-join cells run the "
        "statistics-free greedy join order (cost-model A/B baseline)",
    )
    bench.add_argument(
        "--slowlog-threshold", dest="slowlog_threshold", type=float,
        default=None, metavar="SECONDS",
        help="enable the slow-query log on every system at this threshold "
        "(falls back to $REPRO_SLOWLOG_THRESHOLD when unset)",
    )
    bench.add_argument(
        "--slowlog-path", dest="slowlog_path", default=None, metavar="PATH",
        help="also append slow-query entries as JSONL here "
        "(falls back to $REPRO_SLOWLOG_PATH)",
    )
    bench.add_argument(
        "--no-telemetry", dest="no_telemetry", action="store_true",
        help="skip the per-cell statement-statistics capture "
        "(artifacts then carry empty 'statements' lists)",
    )

    verify = sub.add_parser("verify", help="run temporal consistency checks")
    verify.add_argument("--system", default="A", help="archetype A..E")
    verify.add_argument("--h", type=float, default=0.001)
    verify.add_argument("--m", type=float, default=0.0003)
    verify.add_argument("--bulk", action="store_true",
                        help="use the bulk-load path (System D only)")

    sub.add_parser("systems", help="print the architecture cards")

    lint = sub.add_parser(
        "lint", help="static temporal-query diagnostics (no execution)"
    )
    lint.add_argument("--system", default="A", help="archetype A..E")
    lint.add_argument(
        "--format", dest="format", choices=("text", "json", "sarif"),
        default="text",
        help="output format: human text, JSON, or SARIF 2.1.0",
    )
    lint.add_argument(
        "--fail-on", dest="fail_on", choices=("warning", "error"),
        default="error",
        help="minimum severity that makes the exit code nonzero",
    )
    lint.add_argument(
        "--baseline", default=None, metavar="PATH",
        help="baseline file of known findings (never fail on these)",
    )
    lint.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite --baseline with the current findings and exit 0",
    )
    lint.add_argument(
        "--workload",
        action="store_true",
        help="lint every benchmark query (T/H/K/R/B) instead of one statement",
    )
    lint.add_argument("sql", nargs="?", default=None,
                      help="SELECT statement to analyze")

    cache = sub.add_parser(
        "cache-stats", help="plan-cache hit rates after workload passes"
    )
    cache.add_argument("--system", default="A", help="archetype A..E")
    cache.add_argument("--h", type=float, default=0.001)
    cache.add_argument("--m", type=float, default=0.0003)
    cache.add_argument(
        "--runs", type=int, default=2,
        help="workload passes to drive (>1 exercises cache hits)",
    )

    astats = sub.add_parser(
        "analyze-stats",
        help="run ANALYZE over a loaded workload and print the statistics",
    )
    astats.add_argument("--system", default="A", help="archetype A..E")
    astats.add_argument("--h", type=float, default=0.001)
    astats.add_argument("--m", type=float, default=0.0003)
    astats.add_argument(
        "--table", default=None, help="restrict to one table (default: all)"
    )
    astats.add_argument(
        "--columns", action="store_true",
        help="also print per-column NDV / min / max / null fraction",
    )

    trace = sub.add_parser(
        "trace", help="run one statement and print its lifecycle span tree"
    )
    trace.add_argument("--system", default="A", help="archetype A..E")
    trace.add_argument("--h", type=float, default=0.001)
    trace.add_argument("--m", type=float, default=0.0003)
    trace.add_argument(
        "--jsonl", default=None, metavar="PATH",
        help="also append every finished span to this JSONL file",
    )
    trace.add_argument("sql", help="SQL statement to trace")

    metrics = sub.add_parser(
        "metrics", help="engine metric counters after workload passes"
    )
    metrics.add_argument("--system", default="A", help="archetype A..E")
    metrics.add_argument("--h", type=float, default=0.001)
    metrics.add_argument("--m", type=float, default=0.0003)
    metrics.add_argument(
        "--runs", type=int, default=1, help="workload passes to drive"
    )
    metrics.add_argument(
        "--format", dest="format", choices=("text", "json", "openmetrics"),
        default="text",
        help="output format: human text, JSON snapshot, or an "
        "OpenMetrics/Prometheus exposition",
    )
    metrics.add_argument(
        "--top", type=int, default=10,
        help="statement-stats entries in the openmetrics exposition "
        "(default %(default)s)",
    )

    stat = sub.add_parser(
        "stat-statements",
        help="pg_stat_statements-style per-fingerprint workload statistics",
    )
    stat.add_argument("--system", default="A", help="archetype A..E")
    stat.add_argument("--h", type=float, default=0.001)
    stat.add_argument("--m", type=float, default=0.0003)
    stat.add_argument(
        "--runs", type=int, default=1, help="workload passes to drive"
    )
    stat.add_argument(
        "--top", type=int, default=None,
        help="only the N most expensive statements (default: all)",
    )
    stat.add_argument(
        "--sort", choices=("time", "calls", "rows"), default="time",
        help="ranking key (default %(default)s)",
    )
    stat.add_argument(
        "--json", dest="as_json", action="store_true",
        help="emit the statement rows as JSON instead of a table",
    )

    top = sub.add_parser(
        "top",
        help="one-shot workload summary: hottest statements + key counters",
    )
    top.add_argument("--system", default="A", help="archetype A..E")
    top.add_argument("--h", type=float, default=0.001)
    top.add_argument("--m", type=float, default=0.0003)
    top.add_argument(
        "--runs", type=int, default=1, help="workload passes to drive"
    )
    top.add_argument(
        "--top", dest="top_n", type=int, default=5,
        help="statements to show (default %(default)s)",
    )

    health = sub.add_parser(
        "health",
        help="temporal-health report from the repro_stat_* system views",
    )
    health.add_argument(
        "--systems", default="ABCDE", help="archetypes to drive (default %(default)s)"
    )
    health.add_argument("--h", type=float, default=0.001)
    health.add_argument("--m", type=float, default=0.0003)
    health.add_argument(
        "--runs", type=int, default=1, help="workload passes to drive"
    )
    health.add_argument(
        "--top", dest="top_n", type=int, default=5,
        help="hottest partitions to show per archetype (default %(default)s)",
    )
    health.add_argument(
        "--json", dest="json_path", default=None, metavar="PATH",
        help="also write the report as a repro-health/v1 JSON artifact",
    )

    diff = sub.add_parser(
        "bench-diff",
        help="compare bench artifacts cell by cell (perf trajectory gate)",
    )
    diff.add_argument("base", help="baseline repro-bench/v1 artifact")
    diff.add_argument("others", nargs="+", metavar="new",
                      help="artifact(s) to compare against the baseline")
    diff.add_argument(
        "--threshold", type=float, default=1.15,
        help="new/base median ratio at or above this regresses a cell "
        "(default %(default)s)",
    )
    diff.add_argument(
        "--min-delta-ms", type=float, default=0.5,
        help="ignore absolute median movements below this many milliseconds "
        "(default %(default)s)",
    )
    diff.add_argument(
        "--gate", action="store_true",
        help="exit nonzero when any cell regressed (CI perf gate)",
    )
    diff.add_argument(
        "--report", default=None, metavar="PATH",
        help="also write the delta report as markdown",
    )
    diff.add_argument(
        "--all-cells", action="store_true",
        help="print unchanged cells too (default shows changes only)",
    )

    trend = sub.add_parser(
        "trend", help="fold a directory of bench artifacts into TREND.json"
    )
    trend.add_argument("directory", help="directory holding BENCH_*.json files")
    trend.add_argument(
        "--json", dest="json_path", default=None, metavar="PATH",
        help="where to write the trend store (default DIR/TREND.json)",
    )
    trend.add_argument(
        "--md", dest="md_path", default=None, metavar="PATH",
        help="where to write the markdown trajectory report "
        "(default DIR/TREND.md)",
    )

    flame = sub.add_parser(
        "flamegraph",
        help="folded stacks / SVG flamegraph from tracer span trees",
    )
    flame.add_argument("--system", default="A", help="archetype A..E")
    flame.add_argument("--h", type=float, default=0.001)
    flame.add_argument("--m", type=float, default=0.0003)
    flame.add_argument(
        "--jsonl", default=None, metavar="PATH",
        help="read spans from this JSONL file (tracer or slow-query-log "
        "output) instead of executing anything",
    )
    flame.add_argument(
        "--svg", default=None, metavar="PATH",
        help="render the flamegraph SVG here",
    )
    flame.add_argument(
        "--folded", default=None, metavar="PATH",
        help="write folded-stack lines here (flamegraph.pl input)",
    )
    flame.add_argument(
        "sql", nargs="?", default=None,
        help="statement to profile (default: one full T/H/K/R/B "
        "workload pass)",
    )
    return parser


def _cmd_generate(args) -> int:
    kwargs = {"h": args.h, "m": args.m}
    if args.seed is not None:
        kwargs["seed"] = args.seed
    workload = BitemporalDataGenerator(GeneratorConfig(**kwargs)).generate()
    lines = write_archive(workload, args.out)
    print(f"wrote {args.out}: {lines} lines, "
          f"{len(workload.transactions)} transactions")
    print(format_operations_table(workload))
    return 0


def _cmd_inspect(args) -> int:
    reader = ArchiveReader(args.archive)
    header = reader.header
    print(f"archive {args.archive}")
    for key in ("h", "m", "seed", "scenario_count"):
        print(f"  {key}: {header.get(key)}")
    rows = sum(1 for _ in reader.initial_rows())
    ops = sum(len(t) for t in reader.transactions())
    print(f"  initial rows: {rows}")
    print(f"  history operations: {ops}")
    return 0


def _cmd_query(args) -> int:
    workload = BitemporalDataGenerator(
        GeneratorConfig(h=args.h, m=args.m)
    ).generate()
    system = make_system(args.system)
    Loader(system, workload).load()
    if args.analyze:
        print(system.db.explain_analyze(args.sql))
        return 0
    if args.explain:
        print(system.db.explain(args.sql))
        return 0
    result = system.execute(args.sql)
    if result.columns:
        print(" | ".join(result.columns))
    for row in result.rows:
        print(" | ".join(str(v) for v in row))
    print(f"({len(result.rows)} rows; system time now = {system.now()})")
    return 0


def _slowlog_config(args):
    """(threshold_s, path) for the bench slow-query log: CLI flags first,
    $REPRO_SLOWLOG_THRESHOLD / $REPRO_SLOWLOG_PATH as the fallback."""
    import os

    threshold = getattr(args, "slowlog_threshold", None)
    if threshold is None:
        raw = os.environ.get("REPRO_SLOWLOG_THRESHOLD")
        if raw:
            try:
                threshold = float(raw)
            except ValueError:
                print(
                    f"bench: ignoring non-numeric "
                    f"REPRO_SLOWLOG_THRESHOLD={raw!r}",
                    file=sys.stderr,
                )
    path = getattr(args, "slowlog_path", None) or os.environ.get(
        "REPRO_SLOWLOG_PATH"
    )
    return threshold, path


def _cmd_bench(args) -> int:
    service = BenchmarkService(repetitions=3, discard=1)
    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    context = {"service": service}
    needs_data = any(name not in ("fig04", "fig12", "fig13") for name in names)
    if needs_data:
        context["workload"] = x.generate_workload(h=args.h, m=args.m)
        context["systems"] = x.prepare_systems(
            context["workload"], "ABCD",
            analyze=not getattr(args, "no_stats", False),
        )
        slowlog_threshold, slowlog_path = _slowlog_config(args)
        for system in context["systems"].values():
            if not getattr(args, "no_telemetry", False):
                system.enable_telemetry()
            if slowlog_threshold is not None:
                system.set_slow_query_log(slowlog_threshold, path=slowlog_path)
    measurements = []
    results = []
    for name in names:
        result = EXPERIMENTS[name](context)
        print(result.text)
        print()
        results.append(result)
        measurements.extend(result.measurements)
        if args.out:
            out = Path(args.out)
            out.mkdir(exist_ok=True)
            (out / f"{result.name}.txt").write_text(result.text + "\n")
    summary = format_lint_summary("Analyzer findings", measurements)
    if summary:
        print(summary)
        print()
    if "systems" in context:
        stats = {
            name: system.cache_stats()
            for name, system in context["systems"].items()
        }
        print(format_cache_stats("Plan cache", stats))
    artifact = None
    if args.json_path or args.compare_to:
        from .bench.artifact import build_artifact, write_artifact

        artifact = build_artifact(
            results,
            systems=context.get("systems"),
            config={
                "experiments": names,
                "h": args.h,
                "m": args.m,
                "repetitions": service.repetitions,
                "discard": service.discard,
            },
        )
        artifact["generator"]["created_unix"] = time.time()
    if args.json_path:
        path = write_artifact(
            args.json_path, artifact, experiment="_".join(names)
        )
        print(f"wrote artifact {path}")
    if args.compare_to:
        from .bench.artifact import ArtifactError, load_artifact
        from .bench.compare import ThresholdPolicy, diff_artifacts
        from .bench.report import format_delta_table

        try:
            baseline = load_artifact(args.compare_to)
        except ArtifactError as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 2
        diff = diff_artifacts(
            baseline,
            artifact,
            policy=ThresholdPolicy(regress_ratio=args.threshold),
            base_label=Path(args.compare_to).name,
            new_label="this run",
        )
        print()
        print(format_delta_table(diff))
    return 0


def _cmd_verify(args) -> int:
    workload = BitemporalDataGenerator(
        GeneratorConfig(h=args.h, m=args.m)
    ).generate()
    system = make_system(args.system)
    loader = Loader(system, workload)
    if args.bulk:
        loader.bulk_load()
    else:
        loader.load()
    report = check_system(system, workload)
    print(report.summary())
    return 0 if report.ok else 1


def _cmd_systems(_args) -> int:
    for name in ("A", "B", "C", "D", "E"):
        print(make_system(name).describe())
        print()
    return 0


def _cmd_lint(args) -> int:
    import json

    from .core.queries import Workload
    from .core.queries.tpch import as_benchmark_queries
    from .core.schema import create_benchmark_tables
    from .engine.analyze import SEVERITIES

    system = make_system(args.system)
    # the analyzer only needs the catalog, not data: schema-only setup
    create_benchmark_tables(system.db, temporal=True)
    if args.workload:
        targets = [(query.qid, query.sql) for query in Workload()]
        for mode in ("plain", "app", "sys"):
            targets.extend(
                (query.qid, query.sql) for query in as_benchmark_queries(mode)
            )
    elif args.sql:
        targets = [("query", args.sql)]
    else:
        print("lint: give a SQL statement or --workload", file=sys.stderr)
        return 2

    findings = []  # (target id, Diagnostic)
    for qid, sql in targets:
        for diagnostic in system.lint(sql):
            findings.append((qid, diagnostic))

    baseline = set()
    if args.baseline and Path(args.baseline).exists():
        baseline = {
            (entry["system"], entry["target"], entry["code"])
            for entry in json.loads(Path(args.baseline).read_text())
        }
    if args.update_baseline:
        if not args.baseline:
            print("lint: --update-baseline needs --baseline PATH", file=sys.stderr)
            return 2
        entries = sorted(
            {(args.system, qid, d.code) for qid, d in findings}
        )
        Path(args.baseline).write_text(
            json.dumps(
                [
                    {"system": s, "target": t, "code": c}
                    for s, t, c in entries
                ],
                indent=2,
            )
            + "\n"
        )
        print(f"lint: wrote {len(entries)} baseline entries to {args.baseline}")
        return 0

    threshold = SEVERITIES.index(args.fail_on)
    fresh = [
        (qid, d)
        for qid, d in findings
        if SEVERITIES.index(d.severity) >= threshold
        and (args.system, qid, d.code) not in baseline
    ]

    if args.format == "json":
        print(json.dumps(_lint_json(args.system, findings, baseline), indent=2))
    elif args.format == "sarif":
        print(json.dumps(_lint_sarif(args.system, findings), indent=2))
    else:
        for qid, diagnostic in findings:
            first, *rest = diagnostic.render().split("\n")
            print(f"{qid}: {first}")
            for line in rest:
                print(line)
        print(
            f"({len(targets)} statements, {len(findings)} diagnostics, "
            f"{len(fresh)} at/above --fail-on {args.fail_on} and not in "
            f"baseline, system {args.system})"
        )
    return 1 if fresh else 0


def _lint_json(system_name, findings, baseline):
    """Machine-readable lint output (list of finding objects)."""
    return [
        {
            "system": system_name,
            "target": qid,
            "code": d.code,
            "severity": d.severity,
            "message": d.message,
            "hint": d.hint,
            "plan_path": d.plan_path,
            "line": d.line,
            "column": d.column,
            "fragment": d.fragment,
            "baselined": (system_name, qid, d.code) in baseline,
        }
        for qid, d in findings
    ]


#: SARIF severity levels for the analyzer's severities
_SARIF_LEVELS = {"error": "error", "warning": "warning", "info": "note"}


def _lint_sarif(system_name, findings):
    """Findings as a SARIF 2.1.0 document (the CI artifact format)."""
    from .engine.analyze import RULES

    results = []
    for qid, d in findings:
        region = {}
        if d.line is not None:
            region = {"startLine": d.line, "startColumn": d.column or 1}
        results.append(
            {
                "ruleId": d.code,
                "level": _SARIF_LEVELS[d.severity],
                "message": {"text": f"{qid}: {d.message}"},
                "locations": [
                    {
                        "physicalLocation": {
                            "artifactLocation": {
                                "uri": f"workload/{system_name}/{qid}"
                            },
                            **({"region": region} if region else {}),
                        }
                    }
                ],
                "partialFingerprints": {
                    "reproLint/v1": f"{system_name}:{qid}:{d.code}"
                },
            }
        )
    return {
        "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "rules": [
                            {
                                "id": rule.code,
                                "name": rule.name,
                                "shortDescription": {"text": rule.summary},
                                "help": {"text": rule.hint},
                                "defaultConfiguration": {
                                    "level": _SARIF_LEVELS[rule.severity]
                                },
                            }
                            for rule in RULES.values()
                        ],
                    }
                },
                "results": results,
            }
        ],
    }


def _cmd_cache_stats(args) -> int:
    from .core.loader import Loader
    from .core.queries import Workload

    workload = BitemporalDataGenerator(
        GeneratorConfig(h=args.h, m=args.m)
    ).generate()
    system = make_system(args.system)
    Loader(system, workload).load()
    queries = list(Workload())
    for _ in range(max(1, args.runs)):
        for query in queries:
            system.execute(query.sql, query.params(workload.meta))
    print(
        format_cache_stats(
            f"Plan cache after {max(1, args.runs)}x{len(queries)} queries",
            {args.system: system.cache_stats()},
        )
    )
    return 0


def _cmd_analyze_stats(args) -> int:
    workload = BitemporalDataGenerator(
        GeneratorConfig(h=args.h, m=args.m)
    ).generate()
    system = make_system(args.system)
    Loader(system, workload).load()
    snapshots = system.analyze(args.table)
    for snapshot in snapshots:
        print(f"table {snapshot.table} ({snapshot.row_count} rows)")
        for name in sorted(snapshot.partitions):
            part = snapshot.partitions[name]
            print(
                f"  partition {name}: {part.row_count} rows, "
                f"{len(part.columns)} columns"
            )
            if not args.columns:
                continue
            for column in sorted(part.columns):
                col = part.columns[column]
                print(
                    f"    {column}: ndv={col.ndv} min={col.min_value!r} "
                    f"max={col.max_value!r} nulls={col.null_fraction:.3f} "
                    f"hist={len(col.histogram)} buckets"
                )
    counters = system.metrics()["counters"]
    tallied = {k: v for k, v in counters.items() if k.startswith("stats.")}
    print("stats counters:", tallied)
    return 0


def _cmd_trace(args) -> int:
    from .engine.obs import JsonlSink, RingBufferSink, render_span_tree

    workload = BitemporalDataGenerator(
        GeneratorConfig(h=args.h, m=args.m)
    ).generate()
    system = make_system(args.system)
    Loader(system, workload).load()
    ring = RingBufferSink()
    tracer = system.tracer
    tracer.add_sink(ring)
    jsonl = None
    if args.jsonl:
        jsonl = JsonlSink(args.jsonl)
        tracer.add_sink(jsonl)
    try:
        started = time.perf_counter()
        result = system.execute(args.sql)
        measured = time.perf_counter() - started
    finally:
        tracer.remove_sink(ring)
        if jsonl is not None:
            tracer.remove_sink(jsonl)
            jsonl.close()
    roots = ring.roots()
    if not roots:
        print("no spans recorded", file=sys.stderr)
        return 1
    root = roots[-1]
    print(render_span_tree(root))
    phase_total = sum(
        child.duration for child in root.children
        if child.duration is not None
    )
    print(
        f"({len(result.rows)} rows; phases {phase_total * 1000:.3f} ms of "
        f"{root.duration * 1000:.3f} ms traced, "
        f"{measured * 1000:.3f} ms measured)"
    )
    if args.jsonl:
        print(f"wrote spans to {args.jsonl}")
    return 0


def _drive_workload(args, telemetry: bool = True):
    """Load a tiny workload into one system, run the benchmark queries
    ``args.runs`` times, and return ``(system, runs, query_count)``.

    Shared by the ``metrics``, ``stat-statements`` and ``top`` commands so
    they all observe the same A–E workload shape.
    """
    from .core.queries import Workload

    from .engine.database import DEFAULT_AUTO_ANALYZE_THRESHOLD

    workload = BitemporalDataGenerator(
        GeneratorConfig(h=args.h, m=args.m)
    ).generate()
    system = make_system(args.system)
    Loader(system, workload).load()
    # long-lived CLI database: with the default auto-ANALYZE threshold
    # armed, the first statement planned over a bulk-loaded (or since
    # churned) table refreshes its statistics; writes never do
    system.db.auto_analyze_threshold = DEFAULT_AUTO_ANALYZE_THRESHOLD
    if telemetry:
        system.enable_telemetry()
    system.reset_metrics()
    runs = max(1, args.runs)
    queries = list(Workload())
    for _ in range(runs):
        for query in queries:
            system.execute(query.sql, query.params(workload.meta))
    return system, runs, len(queries)


def _cmd_metrics(args) -> int:
    import json

    system, runs, query_count = _drive_workload(args)
    if args.format == "openmetrics":
        sys.stdout.write(system.openmetrics(top=args.top))
        return 0
    snapshot = system.metrics()
    if args.format == "json":
        print(json.dumps(snapshot, indent=2, sort_keys=True))
        return 0
    print(
        format_metrics(
            f"Engine metrics after {runs}x{query_count} queries "
            f"(system {args.system})",
            {args.system: snapshot["counters"]},
        )
    )
    print()
    for name, summary in snapshot["histograms"].items():
        if not summary["count"]:
            continue
        print(
            f"{name}: count={summary['count']} "
            f"mean={summary['mean'] * 1000:.3f}ms "
            f"p95={summary['p95'] * 1000:.3f}ms "
            f"max={summary['max'] * 1000:.3f}ms"
        )
        previous = 0
        for bucket in summary["buckets"]:
            count = bucket["count"]
            if count == previous:
                continue  # only buckets that gained samples
            le = bucket["le"]
            label = "+Inf" if le == "+Inf" else f"{float(le) * 1000:g}ms"
            print(f"  le={label:>8}  {count}")
            previous = count
    return 0


def _cmd_stat_statements(args) -> int:
    import json

    from .bench.report import format_statements

    system, runs, query_count = _drive_workload(args)
    rows = system.stat_statements(top=args.top, sort=args.sort)
    if args.as_json:
        print(json.dumps(rows, indent=2))
        return 0
    print(
        format_statements(
            f"Statement statistics after {runs}x{query_count} queries "
            f"(system {args.system}, sorted by {args.sort})",
            rows,
        )
    )
    store = system.db.telemetry
    print(
        f"({len(store)} fingerprints tracked, {store.evicted} evicted, "
        f"capacity {store.capacity})"
    )
    return 0


def _cmd_top(args) -> int:
    from .bench.report import format_statements

    system, runs, query_count = _drive_workload(args)
    snapshot = system.telemetry_snapshot(top=args.top_n, sort="time")
    counters = snapshot["counters"]
    hist = snapshot["histograms"].get("query.execute_s", {})
    executed = hist.get("count", 0)
    mean = hist.get("mean")
    p95 = hist.get("p95")
    cache_lookups = counters.get("plan.cache_hit", 0) + counters.get(
        "plan.cache_miss", 0
    )
    hit_rate = (
        counters.get("plan.cache_hit", 0) / cache_lookups if cache_lookups else 0.0
    )
    print(f"workload summary (system {args.system}, {runs}x{query_count} queries)")
    print(
        f"  executed: {executed} statements, "
        f"mean {0.0 if mean is None else mean * 1000:.2f}ms, "
        f"p95 {0.0 if p95 is None else p95 * 1000:.2f}ms"
    )
    print(
        f"  plan cache: {hit_rate:.0%} hit rate over {cache_lookups} lookups; "
        f"statements tracked: {snapshot['statements_tracked']}"
    )
    print(
        f"  rows scanned: current="
        f"{counters.get('storage.current_rows_scanned', 0)} "
        f"history={counters.get('storage.history_rows_scanned', 0)}"
    )
    print()
    print(
        format_statements(
            f"Top {args.top_n} statements by total time", snapshot["statements"]
        )
    )
    return 0


def _system_health(system, top_n: int):
    """One archetype's health facts, queried through its own system views
    (the introspection subsystem eating its own dog food)."""
    def rows(sql):
        return system.execute(sql).rows

    hottest = [
        {
            "table": table, "partition": partition,
            "scans": scans, "rows_read": rows_read,
        }
        for table, partition, scans, rows_read in rows(
            "SELECT table_name, partition, scans, rows_read "
            "FROM repro_stat_tables ORDER BY rows_read DESC "
            f"LIMIT {top_n}"
        )
    ]
    split = {"current": 0, "history": 0, "single": 0}
    for partition, scans in rows(
        "SELECT partition, scans FROM repro_stat_tables"
    ):
        split[partition] = split.get(partition, 0) + scans
    current = split["current"] + split["single"]
    total = current + split["history"]
    outliers = [
        {
            "table": table, "partition": partition,
            "chain_depth": depth, "chains": chains,
        }
        for table, partition, depth, chains in rows(
            "SELECT table_name, partition, chain_depth, chains "
            "FROM repro_stat_history ORDER BY chain_depth DESC LIMIT 3"
        )
    ]
    stale = [
        table for (table,) in rows(
            "SELECT table_name FROM repro_stat_tables "
            "WHERE stats_stale = 1 GROUP BY table_name"
        )
    ]
    auto_runs = next(
        iter(rows(
            "SELECT value FROM repro_stat_metrics "
            "WHERE name = 'stats.auto_analyze_runs'"
        )),
        (0,),
    )[0]
    return {
        "hottest_partitions": hottest,
        "scan_split": {
            "current": current,
            "history": split["history"],
            "history_share": (split["history"] / total) if total else None,
        },
        "chain_depth_outliers": outliers,
        "stale_stats_tables": stale,
        "auto_analyze_runs": auto_runs,
    }


def _cmd_health(args) -> int:
    import argparse
    import json

    names = [n for n in args.systems.upper() if not n.isspace()]
    report = {"schema": "repro-health/v1", "config": {
        "h": args.h, "m": args.m, "runs": args.runs, "systems": "".join(names),
    }, "systems": {}}
    lines = ["# Temporal health report", ""]
    for name in names:
        forwarded = argparse.Namespace(**{**vars(args), "system": name})
        system, runs, query_count = _drive_workload(forwarded)
        health = _system_health(system, args.top_n)
        report["systems"][name] = health
        split = health["scan_split"]
        share = split["history_share"]
        lines.append(f"## System {name} ({runs}x{query_count} queries)")
        lines.append("")
        lines.append(
            f"- partition scans: {split['current']} current/single, "
            f"{split['history']} history"
            + (f" ({share:.0%} history)" if share is not None else "")
        )
        if health["hottest_partitions"]:
            lines.append("- hottest partitions (by rows read):")
            for hot in health["hottest_partitions"]:
                lines.append(
                    f"    - {hot['table']}.{hot['partition']}: "
                    f"{hot['rows_read']} rows over {hot['scans']} scans"
                )
        if health["chain_depth_outliers"]:
            deepest = health["chain_depth_outliers"][0]
            lines.append(
                f"- deepest version chains: {deepest['chain_depth']} versions "
                f"({deepest['chains']} keys in "
                f"{deepest['table']}.{deepest['partition']})"
            )
        if health["stale_stats_tables"]:
            lines.append(
                "- WARNING stale statistics: "
                + ", ".join(health["stale_stats_tables"])
            )
        else:
            lines.append("- statistics fresh on every analyzed table")
        lines.append(
            f"- auto-ANALYZE runs this session: {health['auto_analyze_runs']}"
        )
        lines.append("")
    print("\n".join(lines).rstrip())
    if args.json_path:
        Path(args.json_path).write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n"
        )
        print(f"\nwrote artifact {args.json_path}")
    return 0


def _cmd_bench_diff(args) -> int:
    from .bench.artifact import ArtifactError, load_artifact
    from .bench.compare import ThresholdPolicy, diff_artifacts, markdown_report
    from .bench.report import format_delta_table

    policy = ThresholdPolicy(
        regress_ratio=args.threshold, min_delta_s=args.min_delta_ms / 1000.0
    )
    try:
        base = load_artifact(args.base)
    except ArtifactError as exc:
        print(f"bench-diff: {exc}", file=sys.stderr)
        return 2
    base_label = Path(args.base).name
    regressed = False
    reports = []
    for other in args.others:
        try:
            new = load_artifact(other)
        except ArtifactError as exc:
            print(f"bench-diff: {exc}", file=sys.stderr)
            return 2
        diff = diff_artifacts(
            base, new, policy=policy,
            base_label=base_label, new_label=Path(other).name,
        )
        print(format_delta_table(diff, only_changed=not args.all_cells))
        print()
        reports.append(markdown_report(diff))
        regressed = regressed or bool(diff.regressions)
    if args.report:
        Path(args.report).write_text("\n".join(reports))
        print(f"wrote report {args.report}")
    if args.gate and regressed:
        print("bench-diff: GATE FAILED (regressed cells above)", file=sys.stderr)
        return 1
    return 0


def _cmd_trend(args) -> int:
    from .bench.artifact import ArtifactError
    from .bench import trend as trend_mod

    try:
        trend = trend_mod.fold_directory(args.directory)
    except ArtifactError as exc:
        print(f"trend: {exc}", file=sys.stderr)
        return 2
    directory = Path(args.directory)
    json_path = trend_mod.write_trend(trend, args.json_path or directory)
    md_path = Path(args.md_path) if args.md_path else directory / "TREND.md"
    md_path.write_text(trend_mod.markdown_report(trend))
    print(trend_mod.format_trend_summary(trend))
    print(f"wrote {json_path} and {md_path}")
    return 0


def _cmd_flamegraph(args) -> int:
    from .engine.obs import (
        RingBufferSink,
        format_folded,
        format_operator_table,
        load_jsonl,
        operator_table,
        render_flamegraph_svg,
    )
    from .engine.obs.profile import normalize

    if args.jsonl:
        roots = load_jsonl(args.jsonl)
        source = args.jsonl
    else:
        workload = BitemporalDataGenerator(
            GeneratorConfig(h=args.h, m=args.m)
        ).generate()
        system = make_system(args.system)
        Loader(system, workload).load()
        ring = RingBufferSink(capacity=65536)
        system.tracer.add_sink(ring)
        try:
            if args.sql:
                system.execute(args.sql)
                source = args.sql
            else:
                from .core.queries import Workload

                for query in Workload():
                    system.execute(query.sql, query.params(workload.meta))
                source = f"T/H/K/R/B workload on system {args.system}"
        finally:
            system.tracer.remove_sink(ring)
        roots = normalize(ring.roots())
    if not roots:
        print("flamegraph: no spans recorded", file=sys.stderr)
        return 1
    if args.folded:
        Path(args.folded).write_text(format_folded(roots) + "\n")
        print(f"wrote folded stacks to {args.folded}")
    if args.svg:
        svg = render_flamegraph_svg(roots, title=f"repro flamegraph: {source}")
        Path(args.svg).write_text(svg)
        print(f"wrote flamegraph to {args.svg}")
    if not args.folded and not args.svg:
        print(format_folded(roots))
        print()
    print(format_operator_table(operator_table(roots)))
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "generate": _cmd_generate,
        "inspect": _cmd_inspect,
        "query": _cmd_query,
        "bench": _cmd_bench,
        "verify": _cmd_verify,
        "systems": _cmd_systems,
        "lint": _cmd_lint,
        "cache-stats": _cmd_cache_stats,
        "analyze-stats": _cmd_analyze_stats,
        "trace": _cmd_trace,
        "metrics": _cmd_metrics,
        "stat-statements": _cmd_stat_statements,
        "top": _cmd_top,
        "health": _cmd_health,
        "bench-diff": _cmd_bench_diff,
        "trend": _cmd_trend,
        "flamegraph": _cmd_flamegraph,
    }[args.command]
    return handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
