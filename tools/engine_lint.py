#!/usr/bin/env python3
"""Engine-invariant linter: repo-specific checks ruff cannot express.

The benchmark engine has a handful of structural invariants that keep the
paper's measurements honest.  Each is cheap to verify statically, and each
has been broken (or nearly broken) by an innocent-looking edit before:

* **no-wallclock** — engine code under ``src/repro/engine`` must never read
  the wall clock (``datetime.now``/``utcnow``/``today``, ``time.time``):
  system time is a logical, transaction-driven clock (``db.now()``), and
  wall-clock reads make runs non-reproducible.  ``time.perf_counter`` (a
  monotonic duration source) stays allowed for timeout accounting.
* **rewrite-invariants** — every rule named in ``ALL_RULES`` must declare
  its preserved invariants in ``RULE_INVARIANTS``, and every declaration
  must include ``result-equivalence``: a rewrite that changes results is a
  bug, not an optimisation.
* **layering** — ``engine/sql`` (lexer/parser/AST) must not import from
  ``engine/storage``, ``engine/plan`` or ``engine/index``; ``engine/storage``
  must not import from ``engine/sql`` or ``engine/plan``.  The parser has to
  stay usable for pure static analysis with no executor behind it.
* **profiles** — every ``ArchitectureProfile`` in ``src/repro/systems`` may
  only name rewrite rules that exist in ``ALL_RULES`` and may only suppress
  analyzer codes that exist in ``repro.engine.analyze``.  A typo here would
  silently disable nothing.
* **metric-names** — every metric name passed to ``.inc()``/``.observe()``
  on a metrics registry anywhere under ``src/repro`` must be declared in
  ``repro.engine.obs.metrics`` (``COUNTERS``/``HISTOGRAMS``).  The registry
  raises at runtime for undeclared counters, but only on the code path that
  increments them; this check catches the typo before any query runs.  A
  ``stats.*``/``plan.*`` counter passed to any ``.inc()`` is checked
  whatever its receiver: the optimizer counters back the cost-model
  acceptance numbers, and a silently dropped increment would fake a
  plan-choice regression.
* **span-catalogue** — every span name started on a tracer
  (``tracer.span("...")``/``tracer.start("...")``) under ``src/repro`` must
  appear in the span catalogue in ``docs/OBSERVABILITY.md``.  ``repro
  trace`` and its JSONL output surface these names verbatim; an
  undocumented span is a tree nobody can read.
* **cost-model** — ``engine/plan/cost.py`` (the cardinality estimator) must
  not import from ``engine/sql``: costing works on sketches the rewriter
  derives, so it stays usable without a parser behind it.
* **telemetry-docs** — every OpenMetrics metric family the telemetry
  exposition can emit (registry counters/histograms mapped through the
  ``repro_``-prefix name mapping, plus the ``STATEMENT_METRICS`` statement
  families) and every ``STATEMENT_FIELDS`` statement-statistics column must
  be documented in ``docs/OBSERVABILITY.md``.  Same rationale as
  **span-catalogue**: these names are scraped by dashboards verbatim, so an
  undocumented one is a time series nobody can interpret.
* **rule-catalogue** — every analyzer rule code registered in
  ``repro.engine.analyze`` must have an entry in ``docs/ANALYZER.md`` and
  at least one positive and one negative golden test in
  ``tests/test_analyzer.py`` (``test_positive*`` / ``test_negative*``
  methods that mention the code).  An undocumented or untested rule is a
  diagnostic nobody can trust.
* **view-catalogue** — every system view in the ``SYSTEM_VIEWS`` literal of
  ``repro.engine.obs.introspect``, every column of every view, and every
  OpenMetrics family in ``INTROSPECTION_METRICS`` must be documented in
  ``docs/OBSERVABILITY.md``.  System views are the engine's SQL-facing
  introspection surface; an undocumented view column is a field users must
  reverse-engineer from the assembler code.
* **batch-protocol** — every ``Operator`` subclass under ``engine/plan``
  must speak the chunked batch protocol: it implements (or inherits)
  ``execute_batches`` and must not override the row-level ``execute``
  shim — a stray list-returning override would silently bypass batch
  dispatch, per-operator metrics and the materialization-boundary copy.
  Loop-bearing ``execute_batches`` bodies must poll the
  ``ExecutionContext`` (``check()`` at batch granularity; ``guard_iter``
  per outer row in the pair-at-a-time ``CrossJoin``/``NestedLoopJoin``).
  A single unguarded loop makes timeouts and cancellation advisory, which
  silently invalidates the §5.1 timeout methodology.
* **temporal-ops-catalogue** — while the engine ships the native temporal
  operators (``TemporalAggregate`` / ``TemporalAlignJoin`` under
  ``engine/plan``), ``docs/TEMPORAL_OPS.md`` must exist and document both
  operators, the explicit dialect syntax (``GROUP BY TEMPORAL`` and
  ``TEMPORAL JOIN``), the ``TQ017`` analyzer rule and the
  ``plan.temporal_fusions`` counter — and
  ``docs/ARCHITECTURE.md`` / ``docs/SQL_DIALECT.md`` must link to it.  The
  operators replace rewrites the paper measured as two orders of magnitude
  slow; an undocumented operator is a speedup nobody will reach.

Run as ``python tools/engine_lint.py`` (exit 0 = clean); every check is also
importable for the test suite.  Standard library only.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Dict, List, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
ENGINE = Path("src/repro/engine")

#: loop-bearing node types that force an execute_batches() to poll the context
_LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
          ast.GeneratorExp)
#: wall-clock reads forbidden inside the engine (dotted-name prefixes)
_WALLCLOCK = ("datetime.now", "datetime.utcnow", "datetime.today",
              "datetime.datetime.now", "datetime.datetime.utcnow",
              "datetime.date.today", "date.today", "time.time",
              "time.localtime", "time.gmtime")
#: importing package -> forbidden sibling packages under repro.engine
_LAYERS = {
    "sql": ("storage", "plan", "index"),
    "storage": ("sql", "plan"),
}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _dotted(node: ast.AST) -> str:
    """Flatten an Attribute/Name chain to ``a.b.c`` (best effort)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    else:
        parts.append("?")
    return ".".join(reversed(parts))


# -- shared: does a function poll the ExecutionContext? ---------------

def _polls_context(node: ast.FunctionDef) -> bool:
    """True when the method names a context hook (guard_iter/check).

    Both guard styles name the hook as a string or an attribute:
        guard = getattr(env, "guard_iter", None)
        check = getattr(env, "check", None)
    """
    mentioned: Set[str] = set()
    for inner in ast.walk(node):
        if isinstance(inner, ast.Constant) and isinstance(inner.value, str):
            mentioned.add(inner.value)
        elif isinstance(inner, ast.Name):
            mentioned.add(inner.id)
        elif isinstance(inner, ast.Attribute):
            mentioned.add(inner.attr)
    return bool(mentioned & {"guard_iter", "check"})


# -- check 1: no wall-clock reads inside the engine ------------------------

def check_no_wallclock(root: Path = REPO_ROOT) -> List[str]:
    problems = []
    for path in sorted((root / ENGINE).rglob("*.py")):
        tree = _parse(path)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = _dotted(node.func)
            bare = name.split(".", 1)[-1] if name.startswith("self.") else name
            if bare in _WALLCLOCK:
                problems.append(
                    f"{path.relative_to(root)}:{node.lineno}: "
                    f"[no-wallclock] engine code calls {name}(); system time "
                    f"is the logical clock (db.now())"
                )
    return problems


# -- check 2: every rewrite rule declares its invariants -------------------

def _tuple_of_strings(node: ast.AST) -> Tuple[str, ...]:
    if isinstance(node, (ast.Tuple, ast.List)):
        return tuple(
            e.value for e in node.elts
            if isinstance(e, ast.Constant) and isinstance(e.value, str)
        )
    return ()


def _rewrite_declarations(root: Path) -> Tuple[Tuple[str, ...], Dict[str, Tuple[str, ...]]]:
    tree = _parse(root / ENGINE / "plan" / "rewrite.py")
    all_rules: Tuple[str, ...] = ()
    invariants: Dict[str, Tuple[str, ...]] = {}
    for node in tree.body:
        target = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
        elif isinstance(node, ast.AnnAssign):
            target = node.target
        if not isinstance(target, ast.Name):
            continue
        value = node.value
        if target.id == "ALL_RULES":
            all_rules = _tuple_of_strings(value)
        elif target.id == "RULE_INVARIANTS" and isinstance(value, ast.Dict):
            for key, val in zip(value.keys, value.values):
                if isinstance(key, ast.Constant):
                    invariants[key.value] = _tuple_of_strings(val)
    return all_rules, invariants


def check_rewrite_invariants(root: Path = REPO_ROOT) -> List[str]:
    problems = []
    where = ENGINE / "plan" / "rewrite.py"
    all_rules, invariants = _rewrite_declarations(root)
    if not all_rules:
        return [f"{where}: [rewrite-invariants] could not locate ALL_RULES"]
    for rule in all_rules:
        declared = invariants.get(rule)
        if declared is None:
            problems.append(
                f"{where}: [rewrite-invariants] rule {rule!r} is in ALL_RULES "
                f"but declares no invariants in RULE_INVARIANTS"
            )
        elif "result-equivalence" not in declared:
            problems.append(
                f"{where}: [rewrite-invariants] rule {rule!r} does not declare "
                f"result-equivalence; a rewrite that changes results is a bug"
            )
    for rule in invariants:
        if rule not in all_rules:
            problems.append(
                f"{where}: [rewrite-invariants] RULE_INVARIANTS names unknown "
                f"rule {rule!r} (not in ALL_RULES)"
            )
    return problems


# -- check 3: layer separation between sql / plan / storage ----------------

def _forbidden_import(module: str, level: int, forbidden: Tuple[str, ...]) -> bool:
    """True when a ``from`` target reaches into a forbidden sibling layer."""
    segments = [s for s in module.split(".") if s]
    if level > 0:  # relative: ..plan, ..storage.row_store, ...
        return bool(segments) and segments[0] in forbidden
    # absolute: repro.engine.plan...
    for i, segment in enumerate(segments):
        if segment == "engine" and i + 1 < len(segments):
            return segments[i + 1] in forbidden
    return False


def check_layering(root: Path = REPO_ROOT) -> List[str]:
    problems = []
    for package, forbidden in sorted(_LAYERS.items()):
        for path in sorted((root / ENGINE / package).glob("*.py")):
            tree = _parse(path)
            for node in ast.walk(tree):
                hits = []
                if isinstance(node, ast.ImportFrom):
                    if _forbidden_import(node.module or "", node.level, forbidden):
                        hits.append(node.module or ".")
                    elif node.level > 0 and not node.module:
                        # "from .. import plan" style
                        hits.extend(
                            a.name for a in node.names if a.name in forbidden
                        )
                elif isinstance(node, ast.Import):
                    hits.extend(
                        a.name for a in node.names
                        if _forbidden_import(a.name, 0, forbidden)
                    )
                for hit in hits:
                    problems.append(
                        f"{path.relative_to(root)}:{node.lineno}: "
                        f"[layering] engine/{package} must not import "
                        f"{hit!r} (keep the front-end executor-free)"
                    )
    return problems


# -- check 4: profiles only reference rules/codes that exist ---------------

def _analyzer_codes(root: Path) -> Set[str]:
    tree = _parse(root / ENGINE / "analyze.py")
    codes = set()
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "Rule"
            and node.args
            and isinstance(node.args[0], ast.Constant)
        ):
            codes.add(node.args[0].value)
    return codes


def check_profiles(root: Path = REPO_ROOT) -> List[str]:
    problems = []
    all_rules, _ = _rewrite_declarations(root)
    codes = _analyzer_codes(root)
    for path in sorted((root / "src/repro/systems").glob("system_*.py")):
        tree = _parse(path)
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "ArchitectureProfile"
            ):
                continue
            for keyword in node.keywords:
                if keyword.arg == "rewrite_rules":
                    known, kind = set(all_rules), "rewrite rule"
                elif keyword.arg == "lint_suppressions":
                    known, kind = codes, "analyzer code"
                else:
                    continue
                for name in _tuple_of_strings(keyword.value):
                    if name not in known:
                        problems.append(
                            f"{path.relative_to(root)}:{keyword.value.lineno}: "
                            f"[profiles] unknown {kind} {name!r}"
                        )
    return problems


# -- check 5: incremented metric names are declared in the registry --------

def _declared_metrics(root: Path) -> Tuple[Set[str], Set[str]]:
    """(counter names, histogram names) declared in repro.engine.obs.metrics."""
    tree = _parse(root / ENGINE / "obs" / "metrics.py")
    counters: Set[str] = set()
    histograms: Set[str] = set()
    for node in tree.body:
        target = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
        elif isinstance(node, ast.AnnAssign):
            target = node.target
        if not isinstance(target, ast.Name):
            continue
        if target.id in ("COUNTERS", "HISTOGRAMS") and isinstance(node.value, ast.Dict):
            bucket = counters if target.id == "COUNTERS" else histograms
            bucket.update(
                key.value for key in node.value.keys
                if isinstance(key, ast.Constant) and isinstance(key.value, str)
            )
    return counters, histograms


def check_metric_names(root: Path = REPO_ROOT) -> List[str]:
    problems = []
    counters, histograms = _declared_metrics(root)
    if not counters:
        return [
            f"{ENGINE / 'obs' / 'metrics.py'}: [metric-names] could not "
            f"locate the COUNTERS declaration"
        ]
    declared = {"inc": counters, "observe": histograms}
    for path in sorted((root / "src/repro").rglob("*.py")):
        if path.name == "metrics.py" and path.parent.name == "obs":
            continue
        tree = _parse(path)
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in declared
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                continue
            name = node.args[0].value
            receiver = _dotted(node.func.value).lower()
            optimizer = node.func.attr == "inc" and name.startswith(("stats.", "plan."))
            if "metric" not in receiver and "registry" not in receiver and not optimizer:
                continue  # .inc()/.observe() on something else entirely
            if name not in declared[node.func.attr]:
                where = "COUNTERS" if node.func.attr == "inc" else "HISTOGRAMS"
                problems.append(
                    f"{path.relative_to(root)}:{node.lineno}: "
                    f"[metric-names] {node.func.attr}({name!r}) but {name!r} "
                    f"is not declared in repro.engine.obs.metrics.{where}"
                )
    return problems


# -- check 6: traced span names must be in the docs span catalogue ---------

def _span_call_sites(root: Path) -> List[Tuple[Path, int, str]]:
    """Every literal span name started on a tracer under src/repro.

    Matches ``<receiver>.span("name")`` / ``<receiver>.start("name")`` where
    the receiver's dotted path mentions a tracer; the tracer module itself is
    excluded (its internal ``self.start`` relays the caller's name).
    """
    sites: List[Tuple[Path, int, str]] = []
    for path in sorted((root / "src/repro").rglob("*.py")):
        if path.name == "tracer.py" and path.parent.name == "obs":
            continue
        tree = _parse(path)
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("span", "start")
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                continue
            if "tracer" not in _dotted(node.func.value).lower():
                continue
            sites.append((path, node.lineno, node.args[0].value))
    return sites


def check_span_catalogue(root: Path = REPO_ROOT) -> List[str]:
    sites = _span_call_sites(root)
    if not sites:
        return []  # nothing traced, nothing to document
    catalogue_path = root / "docs" / "OBSERVABILITY.md"
    if not catalogue_path.is_file():
        return [
            f"docs/OBSERVABILITY.md: [span-catalogue] missing, but "
            f"{len(sites)} tracer span call(s) exist under src/repro"
        ]
    catalogue = catalogue_path.read_text()
    problems = []
    for path, lineno, name in sites:
        if f"`{name}`" not in catalogue:
            problems.append(
                f"{path.relative_to(root)}:{lineno}: [span-catalogue] span "
                f"{name!r} is traced but not documented in "
                f"docs/OBSERVABILITY.md"
            )
    return problems


# -- check 7: the cost model stays sql-free --------------------------------

def check_cost_model(root: Path = REPO_ROOT) -> List[str]:
    problems = []
    cost_path = root / ENGINE / "plan" / "cost.py"
    if not cost_path.is_file():
        return [
            f"{ENGINE / 'plan' / 'cost.py'}: [cost-model] missing — the "
            f"cardinality estimator is a declared subsystem"
        ]
    tree = _parse(cost_path)
    for node in ast.walk(tree):
        hits = []
        if isinstance(node, ast.ImportFrom):
            if _forbidden_import(node.module or "", node.level, ("sql",)):
                hits.append(node.module or ".")
            elif node.level > 0 and not node.module:
                hits.extend(a.name for a in node.names if a.name == "sql")
        elif isinstance(node, ast.Import):
            hits.extend(
                a.name for a in node.names
                if _forbidden_import(a.name, 0, ("sql",))
            )
        for hit in hits:
            problems.append(
                f"{cost_path.relative_to(root)}:{node.lineno}: [cost-model] "
                f"plan/cost.py must not import {hit!r} (costing sees "
                f"sketches, never AST)"
            )
    return problems


# -- check 8: operators speak the chunked batch protocol -------------------

def _class_bases(node: ast.ClassDef) -> List[str]:
    """Base-class names of one ClassDef (``Operator`` / ``ops.Operator``)."""
    names: List[str] = []
    for base in node.bases:
        if isinstance(base, ast.Name):
            names.append(base.id)
        elif isinstance(base, ast.Attribute):
            names.append(base.attr)
    return names


def check_batch_protocol(root: Path = REPO_ROOT) -> List[str]:
    # collect every module-level class under engine/plan (subclasses in
    # planner.py spell the base as ops.Operator, so match by last segment)
    classes: Dict[str, Tuple[Path, ast.ClassDef]] = {}
    for path in sorted((root / ENGINE / "plan").glob("*.py")):
        tree = _parse(path)
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                classes[node.name] = (path, node)
    if "Operator" not in classes:
        return []  # no operator base, nothing to enforce
    # transitive closure of Operator subclasses
    operator_like: Set[str] = {"Operator"}
    changed = True
    while changed:
        changed = False
        for name, (_path, node) in classes.items():
            if name in operator_like:
                continue
            if any(base in operator_like for base in _class_bases(node)):
                operator_like.add(name)
                changed = True
    # classes that implement the batch entrypoint themselves (the root's
    # NotImplementedError stub does not count as an implementation)
    implementers = {
        name for name, (_path, node) in classes.items()
        if name != "Operator" and any(
            isinstance(inner, ast.FunctionDef)
            and inner.name == "execute_batches"
            for inner in node.body
        )
    }

    def inherits_entrypoint(name: str, seen: Set[str]) -> bool:
        if name in implementers:
            return True
        if name in seen or name not in classes:
            return False
        seen.add(name)
        return any(
            inherits_entrypoint(base, seen)
            for base in _class_bases(classes[name][1])
        )

    problems = []
    for name in sorted(operator_like - {"Operator"}):
        path, node = classes[name]
        for inner in node.body:
            if isinstance(inner, ast.FunctionDef) and inner.name == "execute":
                problems.append(
                    f"{path.relative_to(root)}:{inner.lineno}: "
                    f"[batch-protocol] {name} overrides the row-level "
                    f"execute() shim; implement execute_batches() so batch "
                    f"dispatch and the materialization boundary stay intact"
                )
        if not inherits_entrypoint(name, set()):
            problems.append(
                f"{path.relative_to(root)}:{node.lineno}: "
                f"[batch-protocol] {name} neither implements nor inherits "
                f"execute_batches()"
            )
    # loop-bearing batch entrypoints must poll the context per batch
    for path in sorted((root / ENGINE / "plan").glob("*.py")):
        tree = _parse(path)
        for node in ast.walk(tree):
            if (
                not isinstance(node, ast.FunctionDef)
                or node.name != "execute_batches"
            ):
                continue
            has_loop = any(
                isinstance(inner, _LOOPS) for inner in ast.walk(node)
            )
            if has_loop and not _polls_context(node):
                problems.append(
                    f"{path.relative_to(root)}:{node.lineno}: "
                    f"[batch-protocol] execute_batches() loops without "
                    f"polling the ExecutionContext (check per batch, or "
                    f"guard_iter per outer row of a pair-at-a-time join)"
                )
    return problems


# -- check 9: telemetry metric families and columns are documented ---------

def _telemetry_declarations(root: Path) -> Tuple[Set[str], Set[str]]:
    """(statement metric families, statement field names) declared in the
    ``STATEMENT_METRICS`` / ``STATEMENT_FIELDS`` literal dicts of
    repro.engine.obs.telemetry."""
    tree = _parse(root / ENGINE / "obs" / "telemetry.py")
    families: Set[str] = set()
    fields: Set[str] = set()
    for node in tree.body:
        target = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
        elif isinstance(node, ast.AnnAssign):
            target = node.target
        if not isinstance(target, ast.Name):
            continue
        if target.id in ("STATEMENT_METRICS", "STATEMENT_FIELDS") and isinstance(
            node.value, ast.Dict
        ):
            bucket = families if target.id == "STATEMENT_METRICS" else fields
            bucket.update(
                key.value for key in node.value.keys
                if isinstance(key, ast.Constant) and isinstance(key.value, str)
            )
    return families, fields


def _openmetrics_family(name: str, histogram: bool = False) -> str:
    """The exposition family name of a registry metric — mirrors
    ``repro.engine.obs.telemetry.counter_family``/``histogram_family``
    (a unit test cross-checks the two against a rendered exposition so
    this static copy cannot drift)."""
    flat = name.replace(".", "_")
    if histogram and flat.endswith("_s"):
        flat = flat[:-2] + "_seconds"
    return "repro_" + flat


def check_telemetry_docs(root: Path = REPO_ROOT) -> List[str]:
    telemetry_rel = ENGINE / "obs" / "telemetry.py"
    if not (root / telemetry_rel).is_file():
        return [
            f"{telemetry_rel}: [telemetry-docs] missing — workload telemetry "
            f"is a declared subsystem"
        ]
    families, fields = _telemetry_declarations(root)
    if not families or not fields:
        return [
            f"{telemetry_rel}: [telemetry-docs] could not locate the "
            f"STATEMENT_METRICS / STATEMENT_FIELDS literal dicts"
        ]
    counters, histograms = _declared_metrics(root)
    expected = dict.fromkeys(sorted(families), "statement metric family")
    for name in sorted(counters):
        expected[_openmetrics_family(name)] = f"counter family (for {name!r})"
    for name in sorted(histograms):
        expected[_openmetrics_family(name, histogram=True)] = (
            f"histogram family (for {name!r})"
        )
    doc_rel = Path("docs") / "OBSERVABILITY.md"
    doc_path = root / doc_rel
    if not doc_path.is_file():
        return [
            f"{doc_rel}: [telemetry-docs] missing, but the telemetry "
            f"exposition emits {len(expected)} metric families"
        ]
    doc_text = doc_path.read_text()
    problems = []
    for family, kind in expected.items():
        if f"`{family}`" not in doc_text:
            problems.append(
                f"{doc_rel}: [telemetry-docs] OpenMetrics {kind} "
                f"{family!r} is exposed but not documented here"
            )
    for field in sorted(fields):
        if f"`{field}`" not in doc_text:
            problems.append(
                f"{doc_rel}: [telemetry-docs] statement-statistics column "
                f"{field!r} is exposed but not documented here"
            )
    return problems


# -- check 10: system views and their columns are documented ---------------

def _introspect_declarations(
    root: Path,
) -> Tuple[Dict[str, Set[str]], Set[str]]:
    """(view name -> column names, OpenMetrics family names) declared in the
    ``SYSTEM_VIEWS`` / ``INTROSPECTION_METRICS`` literal dicts of
    repro.engine.obs.introspect."""
    tree = _parse(root / ENGINE / "obs" / "introspect.py")
    views: Dict[str, Set[str]] = {}
    families: Set[str] = set()
    for node in tree.body:
        target = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
        elif isinstance(node, ast.AnnAssign):
            target = node.target
        if not isinstance(target, ast.Name):
            continue
        if not isinstance(node.value, ast.Dict):
            continue
        if target.id == "SYSTEM_VIEWS":
            for key, value in zip(node.value.keys, node.value.values):
                if not (isinstance(key, ast.Constant)
                        and isinstance(key.value, str)):
                    continue
                columns: Set[str] = set()
                if isinstance(value, ast.Dict):
                    columns = {
                        c.value for c in value.keys
                        if isinstance(c, ast.Constant)
                        and isinstance(c.value, str)
                    }
                views[key.value] = columns
        elif target.id == "INTROSPECTION_METRICS":
            families.update(
                key.value for key in node.value.keys
                if isinstance(key, ast.Constant) and isinstance(key.value, str)
            )
    return views, families


def check_view_catalogue(root: Path = REPO_ROOT) -> List[str]:
    introspect_rel = ENGINE / "obs" / "introspect.py"
    if not (root / introspect_rel).is_file():
        return [
            f"{introspect_rel}: [view-catalogue] missing — system-view "
            f"introspection is a declared subsystem"
        ]
    views, families = _introspect_declarations(root)
    if not views or not families:
        return [
            f"{introspect_rel}: [view-catalogue] could not locate the "
            f"SYSTEM_VIEWS / INTROSPECTION_METRICS literal dicts"
        ]
    doc_rel = Path("docs") / "OBSERVABILITY.md"
    doc_path = root / doc_rel
    if not doc_path.is_file():
        return [
            f"{doc_rel}: [view-catalogue] missing, but the engine exposes "
            f"{len(views)} system views"
        ]
    doc_text = doc_path.read_text()
    problems: List[str] = []
    for view in sorted(views):
        if f"`{view}`" not in doc_text:
            problems.append(
                f"{doc_rel}: [view-catalogue] system view {view!r} is "
                f"queryable but not documented here"
            )
        for column in sorted(views[view]):
            if f"`{column}`" not in doc_text:
                problems.append(
                    f"{doc_rel}: [view-catalogue] column {column!r} of "
                    f"system view {view!r} is exposed but not documented here"
                )
    for family in sorted(families):
        if f"`{family}`" not in doc_text:
            problems.append(
                f"{doc_rel}: [view-catalogue] introspection OpenMetrics "
                f"family {family!r} is exposed but not documented here"
            )
    return problems


# -- check 11: analyzer rules are documented and golden-tested -------------

def check_rule_catalogue(root: Path = REPO_ROOT) -> List[str]:
    codes = sorted(_analyzer_codes(root))
    if not codes:
        return []
    problems: List[str] = []
    doc_rel = Path("docs") / "ANALYZER.md"
    doc_path = root / doc_rel
    doc_text = doc_path.read_text() if doc_path.is_file() else None
    tests_rel = Path("tests") / "test_analyzer.py"
    tests_path = root / tests_rel
    positive: Set[str] = set()
    negative: Set[str] = set()
    if tests_path.is_file():
        for node in _parse(tests_path).body:
            if not isinstance(node, ast.ClassDef):
                continue
            class_codes = {c for c in codes if c in node.name}
            for inner in node.body:
                if not isinstance(inner, ast.FunctionDef):
                    continue
                if inner.name.startswith("test_positive"):
                    bucket = positive
                elif inner.name.startswith("test_negative"):
                    bucket = negative
                else:
                    continue
                referenced = set(class_codes)
                for leaf in ast.walk(inner):
                    if isinstance(leaf, ast.Constant) and isinstance(leaf.value, str):
                        referenced.update(c for c in codes if c in leaf.value)
                bucket.update(referenced)
    if doc_text is None:
        problems.append(
            f"{doc_rel}: [rule-catalogue] missing, but {len(codes)} analyzer "
            f"rule(s) are registered in analyze.py and need documenting"
        )
    for code in codes:
        if doc_text is not None and code not in doc_text:
            problems.append(
                f"{doc_rel}: [rule-catalogue] analyzer rule {code} is "
                f"registered in analyze.py but has no entry here"
            )
        if code not in positive:
            problems.append(
                f"{tests_rel}: [rule-catalogue] analyzer rule {code} has no "
                f"positive golden test (a test_positive* method that "
                f"mentions it)"
            )
        if code not in negative:
            problems.append(
                f"{tests_rel}: [rule-catalogue] analyzer rule {code} has no "
                f"negative golden test (a test_negative* method that "
                f"mentions it)"
            )
    return problems


def check_temporal_ops_catalogue(root: Path = REPO_ROOT) -> List[str]:
    operators_rel = ENGINE / "plan" / "operators.py"
    operators_path = root / operators_rel
    if not operators_path.is_file():
        return []
    operators_text = operators_path.read_text()
    shipped = [
        name
        for name in ("TemporalAggregate", "TemporalAlignJoin")
        if f"class {name}" in operators_text
    ]
    if not shipped:
        return []
    doc_rel = Path("docs") / "TEMPORAL_OPS.md"
    doc_path = root / doc_rel
    if not doc_path.is_file():
        return [
            f"{doc_rel}: [temporal-ops-catalogue] missing, but the engine "
            f"ships the native temporal operators ({', '.join(shipped)})"
        ]
    doc_text = doc_path.read_text()
    problems: List[str] = []
    required = list(shipped) + [
        # the dialect surface, the analyzer hint and its observability
        "GROUP BY TEMPORAL",
        "TEMPORAL JOIN",
        "TQ017",
        "plan.temporal_fusions",
    ]
    for token in required:
        if token not in doc_text:
            problems.append(
                f"{doc_rel}: [temporal-ops-catalogue] must document "
                f"{token!r} — it is part of the native temporal-operator "
                f"surface"
            )
    for linking_doc in ("ARCHITECTURE.md", "SQL_DIALECT.md"):
        linking_rel = Path("docs") / linking_doc
        linking_path = root / linking_rel
        if not linking_path.is_file():
            continue
        if "TEMPORAL_OPS.md" not in linking_path.read_text():
            problems.append(
                f"{linking_rel}: [temporal-ops-catalogue] must link to "
                f"TEMPORAL_OPS.md — the native operators hook into the "
                f"surface this page documents"
            )
    return problems


ALL_CHECKS = (
    check_no_wallclock,
    check_rewrite_invariants,
    check_layering,
    check_profiles,
    check_metric_names,
    check_span_catalogue,
    check_cost_model,
    check_batch_protocol,
    check_telemetry_docs,
    check_view_catalogue,
    check_rule_catalogue,
    check_temporal_ops_catalogue,
)


def run_all(root: Path = REPO_ROOT) -> List[str]:
    problems: List[str] = []
    for check in ALL_CHECKS:
        problems.extend(check(root))
    return problems


def main(argv: List[str] = None) -> int:
    root = Path(argv[0]).resolve() if argv else REPO_ROOT
    problems = run_all(root)
    for problem in problems:
        print(problem)
    checks = ", ".join(c.__name__.replace("check_", "") for c in ALL_CHECKS)
    if problems:
        print(f"engine_lint: {len(problems)} problem(s) ({checks})")
        return 1
    print(f"engine_lint: clean ({checks})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
