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
  ``repro.engine.obs.metrics`` (``COUNTERS``/``HISTOGRAMS``), and every span
  name started on a tracer (``tracer.span("...")``/``tracer.start("...")``)
  must be declared in ``repro.engine.obs.tracer.SPANS``.  The registry
  raises at runtime for undeclared counters, but only on the code path that
  increments them; this check catches the typo before any query runs.  A
  ``stats.*``/``plan.*`` counter passed to any ``.inc()`` is checked
  whatever its receiver: the optimizer counters back the cost-model
  acceptance numbers, and a silently dropped increment would fake a
  plan-choice regression.
* **cost-model** — ``engine/plan/cost.py`` (the cardinality estimator) must
  not import from ``engine/sql``: costing works on sketches the rewriter
  derives, so it stays usable without a parser behind it.
* **batch-protocol** — every ``Operator`` subclass under ``engine/plan``
  must speak the chunked batch protocol: it implements (or inherits)
  ``execute_batches``.  Loop-bearing ``execute_batches`` bodies must poll
  the env's deadline (``env.check()`` at batch granularity;
  ``env.guard_iter`` per outer row in the pair-at-a-time
  ``CrossJoin``/``NestedLoopJoin``).  A single unguarded loop makes
  timeouts advisory, which silently invalidates the §5.1 timeout
  methodology.

The doc catalogues of these declarations are generated, not linted:
``tools/gen_docs.py`` renders them.

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

#: loop-bearing node types that force an execute_batches() to poll the deadline
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


# -- shared: does a function poll the deadline? ------------------------

def _polls_context(node: ast.FunctionDef) -> bool:
    """True when the method reaches a deadline hook: ``env.check()`` or
    ``env.guard_iter(rows)``."""
    return any(
        isinstance(inner, ast.Attribute) and inner.attr in ("check", "guard_iter")
        for inner in ast.walk(node)
    )


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


def _assignments(path: Path) -> Dict[str, ast.AST]:
    """Value node of every module-level ``NAME = ...`` / ``NAME: T = ...``
    in *path* (empty when the file is missing)."""
    if not path.is_file():
        return {}
    values: Dict[str, ast.AST] = {}
    for node in _parse(path).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
        elif isinstance(node, ast.AnnAssign):
            target = node.target
        else:
            continue
        if isinstance(target, ast.Name):
            values[target.id] = node.value
    return values


def _rewrite_declarations(root: Path) -> Tuple[Tuple[str, ...], Dict[str, Tuple[str, ...]]]:
    values = _assignments(root / ENGINE / "plan" / "rewrite.py")
    invariants: Dict[str, Tuple[str, ...]] = {}
    table = values.get("RULE_INVARIANTS")
    if isinstance(table, ast.Dict):
        for key, val in zip(table.keys, table.values):
            if isinstance(key, ast.Constant):
                invariants[key.value] = _tuple_of_strings(val)
    return _tuple_of_strings(values.get("ALL_RULES")), invariants


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


# -- check 5: metric and span names are declared --------------------------

def _declared_names(path: Path, target_name: str) -> Set[str]:
    """String keys of the module-level dict literal *target_name* in *path*
    (empty when the file or the literal is missing)."""
    value = _assignments(path).get(target_name)
    if not isinstance(value, ast.Dict):
        return set()
    return {
        key.value for key in value.keys
        if isinstance(key, ast.Constant) and isinstance(key.value, str)
    }


def _literal_names(node: ast.AST) -> List[str]:
    """The names a call argument can take: a string literal, or the string
    literals on either branch of a conditional expression."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    if isinstance(node, ast.IfExp):
        return _literal_names(node.body) + _literal_names(node.orelse)
    return []


def _call_sites(root: Path, methods: Tuple[str, ...], skip: str):
    """``(path, lineno, method, receiver, name)`` for every call of one of
    *methods* under src/repro whose first argument is a literal name; the
    declaring module ``obs/<skip>`` is excluded."""
    for path in sorted((root / "src/repro").rglob("*.py")):
        if path.name == skip and path.parent.name == "obs":
            continue
        for node in ast.walk(_parse(path)):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in methods
                and node.args
            ):
                receiver = _dotted(node.func.value).lower()
                for name in _literal_names(node.args[0]):
                    yield path, node.lineno, node.func.attr, receiver, name


def metric_call_sites(root: Path) -> List[Tuple[Path, int, str, str]]:
    """Every literal metric name passed to ``.inc()``/``.observe()`` on a
    metrics registry under src/repro, as ``(path, lineno, method, name)``.
    A ``stats.*``/``plan.*`` name passed to any ``.inc()`` counts whatever
    its receiver."""
    sites = []
    for path, lineno, method, receiver, name in _call_sites(
        root, ("inc", "observe"), "metrics.py"
    ):
        optimizer = method == "inc" and name.startswith(("stats.", "plan."))
        if "metric" in receiver or "registry" in receiver or optimizer:
            sites.append((path, lineno, method, name))
    return sites


def span_call_sites(root: Path) -> List[Tuple[Path, int, str]]:
    """Every literal span name started on a tracer under src/repro.

    Matches ``<receiver>.span("name")`` / ``<receiver>.start("name")`` where
    the receiver's dotted path mentions a tracer; the tracer module itself is
    excluded (its internal ``self.start`` relays the caller's name).
    """
    return [
        (path, lineno, name)
        for path, lineno, _method, receiver, name in _call_sites(
            root, ("span", "start"), "tracer.py"
        )
        if "tracer" in receiver
    ]


def check_metric_names(root: Path = REPO_ROOT) -> List[str]:
    obs = root / ENGINE / "obs"
    declared = {
        "inc": _declared_names(obs / "metrics.py", "COUNTERS"),
        "observe": _declared_names(obs / "metrics.py", "HISTOGRAMS"),
    }
    if not declared["inc"]:
        return [
            f"{ENGINE / 'obs' / 'metrics.py'}: [metric-names] could not "
            f"locate the COUNTERS declaration"
        ]
    problems = []
    for path, lineno, method, name in metric_call_sites(root):
        if name not in declared[method]:
            where = "COUNTERS" if method == "inc" else "HISTOGRAMS"
            problems.append(
                f"{path.relative_to(root)}:{lineno}: "
                f"[metric-names] {method}({name!r}) but {name!r} "
                f"is not declared in repro.engine.obs.metrics.{where}"
            )
    spans = _declared_names(obs / "tracer.py", "SPANS")
    for path, lineno, name in span_call_sites(root):
        if name not in spans:
            problems.append(
                f"{path.relative_to(root)}:{lineno}: [metric-names] span "
                f"{name!r} is traced but not declared in "
                f"repro.engine.obs.tracer.SPANS"
            )
    return problems


# -- check 6: the cost model stays sql-free --------------------------------

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


# -- check 7: operators speak the chunked batch protocol -------------------

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
        if not inherits_entrypoint(name, set()):
            problems.append(
                f"{path.relative_to(root)}:{node.lineno}: "
                f"[batch-protocol] {name} neither implements nor inherits "
                f"execute_batches()"
            )
    # loop-bearing batch entrypoints must poll the deadline per batch
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
                    f"polling the deadline (env.check() per batch, or "
                    f"guard_iter per outer row of a pair-at-a-time join)"
                )
    return problems


ALL_CHECKS = (
    check_no_wallclock,
    check_rewrite_invariants,
    check_layering,
    check_profiles,
    check_metric_names,
    check_cost_model,
    check_batch_protocol,
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
