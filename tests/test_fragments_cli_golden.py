"""Pinned ``python -m repro --fragments`` output (PAPER.md footnote 3).

``tests/data/fragments_cli_golden.json`` holds the stdout and exit code
of the fragment mode for the catalog document of ``tests/test_cli.py``
and for XMark XM1–XM10 over ``tests/data/golden_xmark.xml``.  Any change
to the fragment engine must keep them byte-identical.
"""

import io
import json
from pathlib import Path

import pytest

from repro.cli import main as twigm_main

DATA = Path(__file__).resolve().parent / "data"
GOLDEN = json.loads((DATA / "fragments_cli_golden.json").read_text())


@pytest.fixture
def documents(tmp_path):
    catalog = tmp_path / "catalog.xml"
    catalog.write_text(GOLDEN["documents"]["catalog"])
    return {
        "catalog": str(catalog),
        "xmark": str(DATA / GOLDEN["documents"]["xmark"]),
    }


@pytest.mark.parametrize(
    "case", GOLDEN["cases"], ids=[case["id"] for case in GOLDEN["cases"]]
)
def test_fragments_output_is_pinned(case, documents, capsys):
    code = twigm_main(["--fragments", case["query"],
                       documents[case["document"]]])
    captured = capsys.readouterr()
    assert captured.out == case["stdout"]
    assert captured.err == ""
    assert code == case["exit"]


def test_stdin_feeds_the_same_text(monkeypatch, capsys):
    """``-`` reads standard input through the same text path."""
    case = next(case for case in GOLDEN["cases"] if case["id"] == "XM6")
    text = (DATA / GOLDEN["documents"]["xmark"]).read_text()
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert twigm_main(["--fragments", case["query"], "-"]) == case["exit"]
    assert capsys.readouterr().out == case["stdout"]
