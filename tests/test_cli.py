"""CLI tests (python -m repro)."""

import pytest

from repro.cli import build_parser, main


def test_parser_rejects_unknown_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["frobnicate"])


def test_systems_command(capsys):
    assert main(["systems"]) == 0
    out = capsys.readouterr().out
    for name in ("System A", "System B", "System C", "System D", "System E"):
        assert name in out


def test_generate_and_inspect(tmp_path, capsys):
    archive = tmp_path / "a.jsonl"
    assert main(["generate", "--h", "0.0003", "--m", "0.00002",
                 "--out", str(archive)]) == 0
    assert archive.exists()
    assert main(["inspect", str(archive)]) == 0
    out = capsys.readouterr().out
    assert "scenario_count: 20" in out
    assert "initial rows:" in out


def test_query_command(capsys):
    code = main([
        "query", "--system", "D", "--h", "0.0003", "--m", "0.00002",
        "SELECT count(*) FROM orders",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "1 rows" in out


def test_query_explain(capsys):
    code = main([
        "query", "--explain", "--h", "0.0003", "--m", "0.00002",
        "SELECT count(*) FROM orders FOR SYSTEM_TIME AS OF 1",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "Access(orders" in out


def test_bench_single_experiment(tmp_path, capsys):
    code = main([
        "bench", "table2", "--h", "0.0003", "--m", "0.00005",
        "--out", str(tmp_path),
    ])
    assert code == 0
    assert (tmp_path / "table2.txt").exists()
    assert "lineitem" in capsys.readouterr().out


def test_verify_command(capsys):
    code = main(["verify", "--system", "B", "--h", "0.0003", "--m", "0.00005"])
    assert code == 0
    assert "CONSISTENT" in capsys.readouterr().out


def test_verify_bulk_path(capsys):
    code = main(["verify", "--system", "D", "--bulk",
                 "--h", "0.0003", "--m", "0.00005"])
    assert code == 0


def test_lint_single_statement(capsys):
    code = main([
        "lint", "--system", "A",
        "SELECT * FROM lineitem FOR SYSTEM_TIME ALL",
    ])
    assert code == 0  # info findings never fail the command
    out = capsys.readouterr().out
    assert "TQ001" in out
    assert "hint:" in out
    assert "system A" in out


def test_lint_error_severity_sets_exit_code(capsys):
    code = main([
        "lint", "--system", "A",
        "SELECT l_orderkey FROM lineitem FOR SYSTEM_TIME FROM 5 TO 1",
    ])
    assert code == 1
    assert "error[TQ004]" in capsys.readouterr().out


def test_lint_workload_sweep_is_clean(capsys):
    code = main(["lint", "--system", "D", "--workload"])
    assert code == 0
    out = capsys.readouterr().out
    assert "statements," in out
    assert "error[" not in out
    assert "warning[" not in out


def test_lint_json_rows(capsys):
    import json

    code = main([
        "lint", "--system", "A", "--format", "json",
        "SELECT o_orderkey FROM orders FOR SYSTEM_TIME AS OF 5 "
        "WHERE sys_begin > 10",
    ])
    assert code == 1  # TQ015 is an error
    rows = json.loads(capsys.readouterr().out)
    (row,) = [r for r in rows if r["code"] == "TQ015"]
    assert row["severity"] == "error"
    assert row["line"] == 1 and row["column"] >= 1
    assert row["baselined"] is False


def test_lint_requires_sql_or_workload(capsys):
    code = main(["lint"])
    assert code == 2


def test_analyze_stats_command(capsys):
    code = main(["analyze-stats", "--system", "A", "--table", "orders",
                 "--columns", "--h", "0.0003", "--m", "0.00005"])
    assert code == 0
    out = capsys.readouterr().out
    assert "table orders (" in out
    assert "partition current:" in out and "partition history:" in out
    assert "o_orderkey: ndv=" in out
    assert "stats counters:" in out and "'stats.analyze_runs': 1" in out


def test_trace_command(capsys):
    code = main(["trace", "--system", "A", "--h", "0.0003", "--m", "0.00005",
                 "SELECT count(*) FROM orders"])
    assert code == 0
    out = capsys.readouterr().out
    assert "query [sql=SELECT count(*) FROM orders" in out
    for phase in ("parse", "plan.physical", "execute", "operator"):
        assert phase in out
    assert "ms measured)" in out


def test_trace_command_jsonl(tmp_path, capsys):
    import json

    spans = tmp_path / "spans.jsonl"
    code = main(["trace", "--h", "0.0003", "--m", "0.00005",
                 "--jsonl", str(spans),
                 "SELECT count(*) FROM orders"])
    assert code == 0
    records = [json.loads(line) for line in spans.read_text().splitlines()]
    assert any(r["name"] == "query" for r in records)
    assert all(r["duration_s"] is not None for r in records)


def test_health_command(tmp_path, capsys):
    import json

    target = tmp_path / "health.json"
    code = main(["health", "--systems", "AD", "--runs", "2",
                 "--h", "0.0003", "--m", "0.00005",
                 "--json", str(target)])
    assert code == 0
    out = capsys.readouterr().out
    assert "# Temporal health report" in out
    assert "## System A" in out and "## System D" in out
    assert "partition scans:" in out
    assert "hottest partitions" in out
    assert "plan cache:" in out and "hit ratio" in out
    report = json.loads(target.read_text())
    assert report["schema"] == "repro-health/v1"
    assert set(report["systems"]) == {"A", "D"}
    a = report["systems"]["A"]
    split = a["scan_split"]
    assert split["current"] + split["history"] > 0
    assert a["hottest_partitions"]
    # the registry snapshot, histogram buckets included
    assert a["metrics"]["counters"]["storage.current_scans"] > 0
    execute_s = a["metrics"]["histograms"]["query.execute_s"]
    assert execute_s["count"] > 0 and execute_s["buckets"]
    # the workload's repro_stat_statements rows, read before the views
    assert a["statements"]
    assert all(row["calls"] >= 1 and row["fingerprint"] for row in a["statements"])
    assert not any("repro_stat" in row["query"] for row in a["statements"])
    assert a["plan_cache"]["hits"] > 0


def test_bench_json_artifact(tmp_path, capsys):
    import json

    target = tmp_path / "artifact.json"
    code = main(["bench", "table2", "--h", "0.0003", "--m", "0.00005",
                 "--json", str(target)])
    assert code == 0
    assert "wrote artifact" in capsys.readouterr().out
    artifact = json.loads(target.read_text())
    assert artifact["schema"] == "repro-bench/v2"
    assert artifact["config"]["experiments"] == ["table2"]
    assert "created_unix" in artifact["generator"]
    assert [e["name"] for e in artifact["experiments"]] == ["table2"]


def _tiny_artifact(path, median=0.1):
    import json

    path.write_text(json.dumps({
        "schema": "repro-bench/v1",
        "generator": {"tool": "repro bench"},
        "experiments": [{"name": "fig02", "measurements": [{
            "qid": "T1", "system": "A", "setting": "no index",
            "median_s": median, "timed_out": False, "metrics": {},
        }]}],
        "analyzer": {},
    }))
    return path


def test_bench_diff_reports_and_gates(tmp_path, capsys):
    base = _tiny_artifact(tmp_path / "base.json", median=0.100)
    new = _tiny_artifact(tmp_path / "new.json", median=0.200)
    report = tmp_path / "delta.md"
    code = main(["bench-diff", str(base), str(new), "--report", str(report)])
    assert code == 0  # informational without --gate
    out = capsys.readouterr().out
    assert "regressed" in out
    assert "2.00x" in out
    assert report.exists()
    assert "2.00×" in report.read_text()

    code = main(["bench-diff", str(base), str(new), "--gate"])
    assert code == 1
    assert "GATE FAILED" in capsys.readouterr().err

    # a generous threshold lets the same pair through
    code = main(["bench-diff", str(base), str(new), "--gate", "--threshold", "3.0"])
    assert code == 0


def test_bench_diff_rejects_non_artifact(tmp_path, capsys):
    base = _tiny_artifact(tmp_path / "base.json")
    bogus = tmp_path / "bogus.json"
    bogus.write_text("{}")
    code = main(["bench-diff", str(base), str(bogus)])
    assert code == 2
    assert "artifact" in capsys.readouterr().err.lower()


def test_bench_compare_to_baseline(tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    code = main(["bench", "fig02", "--h", "0.0003", "--m", "0.00005",
                 "--json", str(baseline)])
    assert code == 0
    capsys.readouterr()
    code = main(["bench", "fig02", "--h", "0.0003", "--m", "0.00005",
                 "--compare-to", str(baseline), "--threshold", "100.0"])
    assert code == 0
    out = capsys.readouterr().out
    assert "Bench delta" in out
    assert "geometric-mean ratio" in out
