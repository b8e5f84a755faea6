"""tools/engine_lint.py must pass on the repo and catch planted violations."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "engine_lint", REPO_ROOT / "tools" / "engine_lint.py"
)
engine_lint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(engine_lint)


def _write(root: Path, relative: str, text: str):
    path = root / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


@pytest.fixture
def fake_repo(tmp_path):
    """A minimal clean tree the individual checks accept."""
    _write(tmp_path, "src/repro/engine/plan/rewrite.py", (
        'ALL_RULES = ("constant-folding",)\n'
        'RULE_INVARIANTS = {"constant-folding": ("result-equivalence",)}\n'
    ))
    _write(tmp_path, "src/repro/engine/plan/operators.py", (
        "class Ok:\n"
        "    def execute_batches(self, env):\n"
        "        rows = env.guard_iter(self.children[0].rows(env))\n"
        "        return [row for row in rows]\n"
    ))
    _write(tmp_path, "src/repro/engine/plan/cost.py",
           "DEFAULT_EQ_SELECTIVITY = 0.1\n")
    _write(tmp_path, "src/repro/engine/sql/parser.py", "from . import ast\n")
    _write(tmp_path, "src/repro/engine/storage/row_store.py", "import bisect\n")
    _write(tmp_path, "src/repro/engine/analyze.py",
           'RULES = (Rule("TQ001", "n", "info", "s", "p", "h"),)\n')
    _write(tmp_path, "src/repro/systems/system_a.py", (
        "profile = ArchitectureProfile(\n"
        '    rewrite_rules=("constant-folding",),\n'
        '    lint_suppressions=("TQ001",),\n'
        ")\n"
    ))
    _write(tmp_path, "src/repro/engine/obs/metrics.py", (
        'COUNTERS = {"txn.commits": "doc"}\n'
        'HISTOGRAMS = {"query.execute_s": "doc"}\n'
    ))
    _write(tmp_path, "src/repro/engine/obs/tracer.py",
           'SPANS = {"query": "doc"}\n')
    _write(tmp_path, "src/repro/engine/txn.py", (
        "class T:\n"
        "    def done(self):\n"
        '        self._metrics.inc("txn.commits")\n'
    ))
    return tmp_path


class TestRepoIsClean:
    def test_all_checks_pass_on_this_repo(self):
        assert engine_lint.run_all(REPO_ROOT) == []

    def test_cli_exit_code_zero(self):
        proc = subprocess.run(
            [sys.executable, str(REPO_ROOT / "tools" / "engine_lint.py")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "clean" in proc.stdout


class TestFakeRepoBaseline:
    def test_clean_tree_passes(self, fake_repo):
        assert engine_lint.run_all(fake_repo) == []


class TestNoWallclock:
    @pytest.mark.parametrize("call", [
        "datetime.datetime.now()",
        "datetime.now()",
        "date.today()",
        "time.time()",
    ])
    def test_wallclock_reads_are_flagged(self, fake_repo, call):
        _write(fake_repo, "src/repro/engine/plan/operators.py",
               f"def stamp():\n    return {call}\n")
        problems = engine_lint.check_no_wallclock(fake_repo)
        assert len(problems) == 1
        assert "no-wallclock" in problems[0]

    def test_logical_clock_and_perf_counter_are_fine(self, fake_repo):
        _write(fake_repo, "src/repro/engine/plan/operators.py", (
            "def ok(self):\n"
            "    a = self.db.now()\n"
            "    b = time.perf_counter()\n"
            "    return a, b\n"
        ))
        assert engine_lint.check_no_wallclock(fake_repo) == []


class TestRewriteInvariants:
    def test_undeclared_rule_is_flagged(self, fake_repo):
        _write(fake_repo, "src/repro/engine/plan/rewrite.py", (
            'ALL_RULES = ("constant-folding", "mystery")\n'
            'RULE_INVARIANTS = {"constant-folding": ("result-equivalence",)}\n'
        ))
        problems = engine_lint.check_rewrite_invariants(fake_repo)
        assert any("mystery" in p for p in problems)

    def test_missing_result_equivalence_is_flagged(self, fake_repo):
        _write(fake_repo, "src/repro/engine/plan/rewrite.py", (
            'ALL_RULES = ("constant-folding",)\n'
            'RULE_INVARIANTS = {"constant-folding": ("source-spans",)}\n'
        ))
        problems = engine_lint.check_rewrite_invariants(fake_repo)
        assert any("result-equivalence" in p for p in problems)

    def test_unknown_declared_rule_is_flagged(self, fake_repo):
        _write(fake_repo, "src/repro/engine/plan/rewrite.py", (
            'ALL_RULES = ("constant-folding",)\n'
            'RULE_INVARIANTS = {\n'
            '    "constant-folding": ("result-equivalence",),\n'
            '    "ghost": ("result-equivalence",),\n'
            "}\n"
        ))
        problems = engine_lint.check_rewrite_invariants(fake_repo)
        assert any("ghost" in p for p in problems)


class TestLayering:
    @pytest.mark.parametrize("line", [
        "from ..plan import operators",
        "from ..storage.row_store import RowStore",
        "from repro.engine.plan import operators",
        "from ..index.btree import BTree",
    ])
    def test_sql_reaching_backwards_is_flagged(self, fake_repo, line):
        _write(fake_repo, "src/repro/engine/sql/parser.py", line + "\n")
        problems = engine_lint.check_layering(fake_repo)
        assert len(problems) == 1
        assert "engine/sql" in problems[0]

    @pytest.mark.parametrize("line", [
        "from ..sql import ast",
        "from .. import sql",
        "from ..plan.context import Env",
    ])
    def test_storage_reaching_up_is_flagged(self, fake_repo, line):
        _write(fake_repo, "src/repro/engine/storage/row_store.py", line + "\n")
        assert engine_lint.check_layering(fake_repo)

    def test_local_and_stdlib_imports_are_fine(self, fake_repo):
        _write(fake_repo, "src/repro/engine/sql/parser.py",
               "import bisect\nfrom . import ast\nfrom ..errors import X\n")
        assert engine_lint.check_layering(fake_repo) == []


class TestProfiles:
    def test_unknown_rewrite_rule_is_flagged(self, fake_repo):
        _write(fake_repo, "src/repro/systems/system_a.py", (
            "profile = ArchitectureProfile(\n"
            '    rewrite_rules=("no-such-rule",),\n'
            ")\n"
        ))
        problems = engine_lint.check_profiles(fake_repo)
        assert any("no-such-rule" in p for p in problems)

    def test_unknown_suppression_code_is_flagged(self, fake_repo):
        _write(fake_repo, "src/repro/systems/system_a.py", (
            "profile = ArchitectureProfile(\n"
            '    lint_suppressions=("TQ999",),\n'
            ")\n"
        ))
        problems = engine_lint.check_profiles(fake_repo)
        assert any("TQ999" in p for p in problems)


class TestMetricNames:
    def test_undeclared_counter_is_flagged(self, fake_repo):
        _write(fake_repo, "src/repro/engine/txn.py", (
            "class T:\n"
            "    def done(self):\n"
            '        self._metrics.inc("txn.comits")\n'  # typo
        ))
        problems = engine_lint.check_metric_names(fake_repo)
        assert len(problems) == 1
        assert "txn.comits" in problems[0]
        assert "COUNTERS" in problems[0]

    def test_undeclared_histogram_is_flagged(self, fake_repo):
        _write(fake_repo, "src/repro/engine/session.py", (
            "class S:\n"
            "    def run(self):\n"
            '        self.db.metrics.observe("query.exec_s", 0.1)\n'
        ))
        problems = engine_lint.check_metric_names(fake_repo)
        assert any("HISTOGRAMS" in p for p in problems)

    def test_declared_names_pass(self, fake_repo):
        _write(fake_repo, "src/repro/bench/service.py", (
            "def f(registry):\n"
            '    registry.inc("txn.commits")\n'
            '    registry.observe("query.execute_s", 0.5)\n'
        ))
        assert engine_lint.check_metric_names(fake_repo) == []

    def test_inc_on_unrelated_receiver_is_ignored(self, fake_repo):
        _write(fake_repo, "src/repro/engine/session.py", (
            "def f(cursor):\n"
            '    cursor.inc("not-a-metric")\n'
        ))
        assert engine_lint.check_metric_names(fake_repo) == []

    def test_missing_declarations_are_reported(self, fake_repo):
        _write(fake_repo, "src/repro/engine/obs/metrics.py", "X = 1\n")
        problems = engine_lint.check_metric_names(fake_repo)
        assert any("COUNTERS" in p for p in problems)

    def test_undeclared_optimizer_counter_is_flagged(self, fake_repo):
        # even on a receiver the metric-names check would skip
        _write(fake_repo, "src/repro/engine/database.py", (
            "def analyze(self):\n"
            '    self._m.inc("stats.analyz_runs")\n'  # typo
        ))
        problems = engine_lint.check_metric_names(fake_repo)
        assert len(problems) == 1
        assert "stats.analyz_runs" in problems[0]

    def test_declared_optimizer_counter_passes(self, fake_repo):
        _write(fake_repo, "src/repro/engine/obs/metrics.py", (
            'COUNTERS = {"txn.commits": "doc", "plan.greedy_joins": "doc"}\n'
            'HISTOGRAMS = {"query.execute_s": "doc"}\n'
        ))
        _write(fake_repo, "src/repro/engine/plan/rewrite.py", (
            'ALL_RULES = ("constant-folding",)\n'
            'RULE_INVARIANTS = {"constant-folding": ("result-equivalence",)}\n'
            "def order(metrics):\n"
            '    metrics.inc("plan.greedy_joins")\n'
        ))
        assert engine_lint.check_metric_names(fake_repo) == []

    def test_non_optimizer_counter_on_unrelated_receiver_is_ignored(self, fake_repo):
        _write(fake_repo, "src/repro/engine/txn.py", (
            "def f(counter):\n"
            '    counter.inc("txn.whatever")\n'  # not stats.* / plan.*
        ))
        assert engine_lint.check_metric_names(fake_repo) == []

    def test_both_names_of_a_conditional_are_checked(self, fake_repo):
        _write(fake_repo, "src/repro/engine/database.py", (
            "def lookup(self, snapshot):\n"
            '    self.metrics.inc("txn.commits" if snapshot else "txn.comits")\n'
        ))
        problems = engine_lint.check_metric_names(fake_repo)
        assert len(problems) == 1
        assert "txn.comits" in problems[0]

    def _trace_file(self, fake_repo, name):
        _write(fake_repo, "src/repro/engine/session.py", (
            "def run(tracer, sql):\n"
            f'    with tracer.span("{name}"):\n'
            "        pass\n"
        ))

    def test_declared_span_passes(self, fake_repo):
        self._trace_file(fake_repo, "query")
        assert engine_lint.check_metric_names(fake_repo) == []

    def test_undeclared_span_is_flagged(self, fake_repo):
        self._trace_file(fake_repo, "mystery.phase")
        problems = engine_lint.check_metric_names(fake_repo)
        assert len(problems) == 1
        assert "mystery.phase" in problems[0]
        assert "SPANS" in problems[0]

    def test_span_start_call_is_also_collected(self, fake_repo):
        _write(fake_repo, "src/repro/engine/session.py", (
            "def run(self, sql):\n"
            '    span = self._tracer.start("undeclared", sql=sql)\n'
        ))
        problems = engine_lint.check_metric_names(fake_repo)
        assert any("undeclared" in p for p in problems)

    def test_span_on_non_tracer_receiver_is_ignored(self, fake_repo):
        _write(fake_repo, "src/repro/engine/session.py", (
            "def run(cursor):\n"
            '    cursor.span("whatever")\n'
        ))
        assert engine_lint.check_metric_names(fake_repo) == []


class TestBatchProtocol:
    _BASE = (
        "class Operator:\n"
        "    def execute_batches(self, env):\n"
        "        raise NotImplementedError\n"
    )

    def test_no_operator_base_means_clean(self, fake_repo):
        # the baseline fake tree has no Operator hierarchy at all
        assert engine_lint.check_batch_protocol(fake_repo) == []

    def test_compliant_subclass_passes(self, fake_repo):
        _write(fake_repo, "src/repro/engine/plan/operators.py", (
            self._BASE
            + "class Filter(Operator):\n"
            "    def execute_batches(self, env):\n"
            "        out = []\n"
            "        for batch in self.children[0].batches(env):\n"
            "            env.check()\n"
            "            out.append(batch)\n"
            "        return out\n"
        ))
        assert engine_lint.check_batch_protocol(fake_repo) == []

    def test_missing_entrypoint_is_flagged(self, fake_repo):
        _write(fake_repo, "src/repro/engine/plan/operators.py", (
            self._BASE
            + "class Hollow(Operator):\n"
            "    def label(self):\n"
            '        return "Hollow"\n'
        ))
        problems = engine_lint.check_batch_protocol(fake_repo)
        assert any("Hollow" in p and "neither implements" in p for p in problems)

    def test_entrypoint_inherited_through_intermediate_passes(self, fake_repo):
        _write(fake_repo, "src/repro/engine/plan/operators.py", (
            self._BASE
            + "class Mid(Operator):\n"
            "    def execute_batches(self, env):\n"
            "        return []\n"
            "class Leaf(Mid):\n"
            "    def label(self):\n"
            '        return "Leaf"\n'
        ))
        assert engine_lint.check_batch_protocol(fake_repo) == []

    def test_unpolled_batch_loop_is_flagged(self, fake_repo):
        _write(fake_repo, "src/repro/engine/plan/operators.py", (
            self._BASE
            + "class Busy(Operator):\n"
            "    def execute_batches(self, env):\n"
            "        out = []\n"
            "        for batch in self.children[0].batches(env):\n"
            "            out.append(batch)\n"
            "        return out\n"
        ))
        problems = engine_lint.check_batch_protocol(fake_repo)
        assert len(problems) == 1
        assert "loops without" in problems[0]

    def test_unpolled_row_loop_is_flagged(self, fake_repo):
        _write(fake_repo, "src/repro/engine/plan/operators.py", (
            self._BASE
            + "class Bad(Operator):\n"
            "    def execute_batches(self, env):\n"
            "        out = []\n"
            "        for row in self.children[0].rows(env):\n"
            "            out.append(row)\n"
            "        return out\n"
        ))
        problems = engine_lint.check_batch_protocol(fake_repo)
        assert len(problems) == 1
        assert "batch-protocol" in problems[0]

    def test_unpolled_comprehension_is_flagged(self, fake_repo):
        _write(fake_repo, "src/repro/engine/plan/operators.py", (
            self._BASE
            + "class Busy(Operator):\n"
            "    def execute_batches(self, env):\n"
            "        return [b for b in self.children[0].batches(env)]\n"
        ))
        problems = engine_lint.check_batch_protocol(fake_repo)
        assert len(problems) == 1
        assert "loops without" in problems[0]

    def test_guard_iter_style_is_accepted(self, fake_repo):
        _write(fake_repo, "src/repro/engine/plan/operators.py", (
            self._BASE
            + "class Pairs(Operator):\n"
            "    def execute_batches(self, env):\n"
            "        rows = env.guard_iter(self.children[0].rows(env), 256)\n"
            "        return [row for row in rows]\n"
        ))
        assert engine_lint.check_batch_protocol(fake_repo) == []

    def test_loopless_entrypoint_needs_no_guard(self, fake_repo):
        _write(fake_repo, "src/repro/engine/plan/operators.py", (
            self._BASE
            + "class Empty(Operator):\n"
            "    def execute_batches(self, env):\n"
            "        return self._batches\n"
        ))
        assert engine_lint.check_batch_protocol(fake_repo) == []

    def test_ops_attribute_base_is_recognized(self, fake_repo):
        # planner.py spells the base as ops.Operator
        _write(fake_repo, "src/repro/engine/plan/operators.py", self._BASE)
        _write(fake_repo, "src/repro/engine/plan/planner.py", (
            "from . import operators as ops\n"
            "class _Finalize(ops.Operator):\n"
            "    def label(self):\n"
            '        return "Finalize"\n'
        ))
        problems = engine_lint.check_batch_protocol(fake_repo)
        assert any("_Finalize" in p for p in problems)


class TestCostModel:
    def test_missing_cost_module_is_flagged(self, fake_repo):
        (fake_repo / "src/repro/engine/plan/cost.py").unlink()
        problems = engine_lint.check_cost_model(fake_repo)
        assert any("missing" in p for p in problems)

    @pytest.mark.parametrize("line", [
        "from ..sql import ast",
        "from .. import sql",
        "from repro.engine.sql.ast import Literal",
    ])
    def test_sql_import_in_cost_is_flagged(self, fake_repo, line):
        _write(fake_repo, "src/repro/engine/plan/cost.py", line + "\n")
        problems = engine_lint.check_cost_model(fake_repo)
        assert len(problems) == 1
        assert "cost-model" in problems[0]

    def test_storage_import_in_cost_is_allowed(self, fake_repo):
        # only sql is walled off; stats types come from the engine proper
        _write(fake_repo, "src/repro/engine/plan/cost.py",
               "from ..stats import ColumnStats\n")
        assert engine_lint.check_cost_model(fake_repo) == []
