#!/usr/bin/env python3
"""Generate the doc catalogue tables from the declarations they describe.

Every name the engine exposes is declared once, in code; the docs carry a
rendering of those declarations between marker comments:

    <!-- gen_docs: NAME -->
    ...generated table...
    <!-- /gen_docs: NAME -->

* ``docs/OBSERVABILITY.md``: ``spans`` (``repro.engine.obs.tracer.SPANS``),
  ``metrics`` (``COUNTERS`` / ``HISTOGRAMS``) and one ``view:<name>`` table
  per system view (``repro.engine.obs.introspect.SYSTEM_VIEWS``);
* ``docs/ANALYZER.md``: ``rules`` (``repro.engine.analyze.RULES``).

The "recorded in" / "started in" columns are the files whose call sites
``tools/engine_lint.py`` finds for each name.

Run ``python tools/gen_docs.py`` to rewrite the tables in place, or
``python tools/gen_docs.py --check`` to exit 1 without writing when any
table differs from its declarations (CI runs the check).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Tuple

TOOLS = Path(__file__).resolve().parent
REPO_ROOT = TOOLS.parent


def _table(header: Tuple[str, ...], rows: Iterable[Tuple[str, ...]]) -> str:
    lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    for row in rows:
        cells = (cell.replace("|", "\\|").replace("<", "&lt;") for cell in row)
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)


def _files_by_name(sites: Iterable[Tuple[Path, str]]) -> Dict[str, str]:
    """name -> the files (relative to src/repro) that emit it."""
    files: Dict[str, set] = {}
    for path, name in sites:
        files.setdefault(name, set()).add(path.relative_to(REPO_ROOT / "src/repro").as_posix())
    return {name: ", ".join(f"`{f}`" for f in sorted(paths)) for name, paths in files.items()}


def catalogues() -> Dict[str, Dict[str, str]]:
    """doc path -> {block name -> rendered table}."""
    for entry in (str(TOOLS), str(REPO_ROOT / "src")):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    from engine_lint import metric_call_sites, span_call_sites
    from repro.engine.analyze import RULES
    from repro.engine.obs import COUNTERS, HISTOGRAMS, SPANS, SYSTEM_VIEWS

    span_files = _files_by_name(
        (path, name) for path, _line, name in span_call_sites(REPO_ROOT)
    )
    metric_files = _files_by_name(
        (path, name) for path, _line, _method, name in metric_call_sites(REPO_ROOT)
    )
    observability = {
        "spans": _table(
            ("span", "started in", "parent, attrs and meaning"),
            ((f"`{name}`", span_files.get(name, "—"), text) for name, text in SPANS.items()),
        ),
        "metrics": _table(
            ("metric", "kind", "recorded in", "what it counts and diagnoses"),
            (
                (f"`{name}`", kind, metric_files.get(name, "—"), text)
                for kind, declared in (("counter", COUNTERS), ("histogram", HISTOGRAMS))
                for name, text in declared.items()
            ),
        ),
    }
    for view, columns in SYSTEM_VIEWS.items():
        observability[f"view:{view}"] = _table(
            ("column", "meaning"),
            ((f"`{column}`", text) for column, text in columns.items()),
        )
    rules = _table(
        ("code", "name", "severity", "fires on", "motivation", "hint"),
        (
            (r.code, r.name, r.severity, r.summary, r.paper, r.hint)
            for r in RULES.values()
        ),
    )
    return {"docs/OBSERVABILITY.md": observability, "docs/ANALYZER.md": {"rules": rules}}


def splice(text: str, name: str, table: str) -> str:
    """*text* with the block between *name*'s markers replaced by *table*."""
    begin, end = f"<!-- gen_docs: {name} -->", f"<!-- /gen_docs: {name} -->"
    head, found, rest = text.partition(begin)
    if not found or end not in rest:
        raise SystemExit(f"gen_docs: no {begin} ... {end} markers")
    return f"{head}{begin}\n{table}\n{end}{rest.partition(end)[2]}"


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--check", action="store_true",
        help="write nothing; exit 1 when a generated table is stale",
    )
    args = parser.parse_args(argv)
    stale = []
    for doc, blocks in catalogues().items():
        path = REPO_ROOT / doc
        old = path.read_text()
        new = old
        for name, table in blocks.items():
            new = splice(new, name, table)
        if new != old:
            stale.append(doc)
            if not args.check:
                path.write_text(new)
    if args.check and stale:
        print(f"gen_docs: stale tables in {', '.join(stale)}; run python tools/gen_docs.py")
        return 1
    print(f"gen_docs: {'rewrote ' + ', '.join(stale) if stale else 'up to date'}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
