"""tools/gen_docs.py: the doc catalogues match their declarations."""

import importlib.util
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "gen_docs", REPO_ROOT / "tools" / "gen_docs.py"
)
gen_docs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen_docs)


def test_committed_docs_are_up_to_date(capsys):
    assert gen_docs.main(["--check"]) == 0, capsys.readouterr().out


def test_splice_replaces_only_the_marked_block():
    text = (
        "intro\n<!-- gen_docs: t -->\n| old |\n<!-- /gen_docs: t -->\noutro\n"
    )
    assert gen_docs.splice(text, "t", "| new |") == (
        "intro\n<!-- gen_docs: t -->\n| new |\n<!-- /gen_docs: t -->\noutro\n"
    )


def test_missing_markers_are_an_error():
    with pytest.raises(SystemExit):
        gen_docs.splice("no markers here\n", "t", "| new |")
