"""The ``python -m repro multiq`` front end (repro.multiq.cli)."""

from __future__ import annotations

import pytest

from repro.multiq.cli import main as multiq_main

XML = (
    "<catalog>"
    "<book year='2006'><price>25</price><title>A</title></book>"
    "<book year='1999'><price>60</price><title>B</title></book>"
    "</catalog>"
)


@pytest.fixture
def xml_file(tmp_path):
    path = tmp_path / "catalog.xml"
    path.write_text(XML)
    return str(path)


@pytest.fixture
def queries_file(tmp_path):
    path = tmp_path / "standing.txt"
    path.write_text(
        "# standing queries\n"
        "cheap\t//book[price < 30]/title\n"
        "titles //title\n"
        "\n"
    )
    return str(path)


def test_queries_file_incremental_output(xml_file, queries_file, capsys):
    assert multiq_main(["--queries", queries_file, xml_file]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "cheap\t4" in out
    assert "titles\t4" in out and "titles\t7" in out


def test_inline_queries_and_counts(xml_file, capsys):
    code = multiq_main(
        ["-e", "t=//title", "-e", "missing=//zzz", "--count", xml_file]
    )
    assert code == 0
    assert capsys.readouterr().out.splitlines() == ["t\t2", "missing\t0"]


def test_stats_on_stderr(xml_file, capsys):
    assert multiq_main(["-e", "t=//title", "--stats", xml_file]) == 0
    err = capsys.readouterr().err
    assert "queries=1" in err and "reduction=" in err and "gate_tests=" in err


def test_explain_reports_canonical_and_machine(xml_file, capsys):
    code = multiq_main(
        ["-e", "a=//title", "-e", "b=//book[./title]", "-e", "c=//book[price]//title",
         "-e", "d=//book[title]//price", "--explain", xml_file]
    )
    assert code == 0
    err = capsys.readouterr().err
    assert "[dfa]" in err
    # A one-member label shape, in canonical spelling, not the input's.
    assert "shape: //book[$l]  [twigm, 1 member]\n  b: $l = title\n" in err
    # A two-label shape prints once, then each member's two labels.
    assert ("shape: //book[$l]//$r  [twigm, 2 members]\n"
            "  c: $l = price, $r = title\n"
            "  d: $l = title, $r = price\n") in err
    assert "4 queries -> 3 machines" in err


def test_dedup_visible_in_explain(xml_file, capsys):
    multiq_main(["-e", "a=//title", "-e", "b=//title", "--explain", xml_file])
    assert "2 queries -> 1 machines" in capsys.readouterr().err


def test_no_match_exits_1(xml_file):
    assert multiq_main(["-e", "q=//nothing", xml_file]) == 1


def test_no_queries_exits_2(xml_file, capsys):
    assert multiq_main([xml_file]) == 2
    assert "no standing queries" in capsys.readouterr().err


def test_bad_inline_spec_exits_2(xml_file, capsys):
    assert multiq_main(["-e", "not-a-spec", xml_file]) == 2


def test_duplicate_names_across_sources_exit_2(xml_file, queries_file, capsys):
    assert multiq_main(["--queries", queries_file, "-e", "titles=//a", xml_file]) == 2
    assert "duplicate" in capsys.readouterr().err


def test_stdin_source(monkeypatch, capsys):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(XML))
    assert multiq_main(["-e", "t=//title"]) == 0
    assert "t\t4" in capsys.readouterr().out


def test_repro_cli_routes_multiq_subcommand(xml_file, capsys):
    from repro.cli import main as repro_main

    assert repro_main(["multiq", "-e", "t=//title", xml_file]) == 0
    assert "t\t4" in capsys.readouterr().out
