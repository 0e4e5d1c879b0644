"""Tests for the ``twigm`` CLI (repro.cli) and the bench CLI."""

import pytest

from repro.bench.cli import main as bench_main
from repro.cli import main as twigm_main


@pytest.fixture
def catalog(tmp_path):
    path = tmp_path / "catalog.xml"
    path.write_text(
        "<catalog>"
        "<book><price>25</price><title>Cheap</title></book>"
        "<book><price>60</price><title>Dear</title></book>"
        "</catalog>"
    )
    return str(path)


class TestTwigmCli:
    def test_ids_output(self, catalog, capsys):
        code = twigm_main(["//book//title", catalog])
        out = capsys.readouterr().out.split()
        assert code == 0
        assert out == ["4", "7"]

    def test_no_match_exit_code(self, catalog, capsys):
        assert twigm_main(["//zzz", catalog]) == 1
        assert capsys.readouterr().out == ""

    def test_count_mode(self, catalog, capsys):
        assert twigm_main(["--count", "//book", catalog]) == 0
        assert capsys.readouterr().out.strip() == "2"

    def test_value_predicate(self, catalog, capsys):
        twigm_main(["//book[price < 30]/title", catalog])
        assert capsys.readouterr().out.split() == ["4"]

    def test_fragments_mode(self, catalog, capsys):
        assert twigm_main(["--fragments", "//book[price < 30]/title", catalog]) == 0
        assert capsys.readouterr().out.strip() == "<title>Cheap</title>"

    def test_fragments_no_match(self, catalog, capsys):
        assert twigm_main(["--fragments", "//zzz", catalog]) == 1

    def test_stdin_source(self, catalog, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("<a><b/></a>"))
        assert twigm_main(["//b", "-"]) == 0
        assert capsys.readouterr().out.strip() == "2"

    def test_explain_flag(self, catalog, capsys):
        twigm_main(["--explain", "//book//title", catalog])
        err = capsys.readouterr().err
        assert "dfa" in err and "XP{/,//,*}" in err

    def test_engine_override(self, catalog, capsys):
        assert twigm_main(["--engine", "twigm", "//book//title", catalog]) == 0
        assert capsys.readouterr().out.split() == ["4", "7"]

    def test_bad_query_reports_error(self, catalog, capsys):
        assert twigm_main(["//book[", catalog]) == 2
        assert "twigm:" in capsys.readouterr().err

    def test_missing_file_reports_error(self, capsys):
        assert twigm_main(["//a", "/nonexistent/file.xml"]) == 2
        assert "twigm:" in capsys.readouterr().err

    def test_malformed_xml_reports_error(self, tmp_path, capsys):
        path = tmp_path / "bad.xml"
        path.write_text("<a><b></a>")
        assert twigm_main(["//a", str(path)]) == 2

    def test_fragments_with_explain(self, catalog, capsys):
        assert twigm_main(["--fragments", "--explain", "//book[price < 30]", catalog]) == 0
        captured = capsys.readouterr()
        assert "machine: twigm (select)" in captured.err
        assert captured.out.startswith("<book>")

    def test_count_with_engine_override(self, catalog, capsys):
        assert twigm_main(["--count", "--engine", "twigm", "//book", catalog]) == 0
        assert capsys.readouterr().out.strip() == "2"


class TestMultiQueryCli:
    @pytest.fixture
    def query_file(self, tmp_path):
        path = tmp_path / "queries.txt"
        path.write_text(
            "# standing queries\n"
            "cheap\t//book[price < 30]/title\n"
            "titles //title\n"
        )
        return str(path)

    def test_tab_separated_output(self, query_file, catalog, capsys):
        assert twigm_main(["--queries", query_file, catalog]) == 0
        lines = sorted(capsys.readouterr().out.splitlines())
        assert "cheap\t4" in lines
        assert "titles\t4" in lines and "titles\t7" in lines

    def test_count_mode(self, query_file, catalog, capsys):
        assert twigm_main(["--queries", query_file, "--count", catalog]) == 0
        out = dict(line.split("\t") for line in capsys.readouterr().out.splitlines())
        assert out == {"cheap": "1", "titles": "2"}

    def test_explain_lists_engines(self, query_file, catalog, capsys):
        twigm_main(["--queries", query_file, "--explain", catalog])
        err = capsys.readouterr().err
        assert "[twigm]" in err and "[dfa]" in err

    def test_no_match_exit_code(self, tmp_path, catalog, capsys):
        path = tmp_path / "q.txt"
        path.write_text("nada //zzz\n")
        assert twigm_main(["--queries", str(path), catalog]) == 1

    def test_query_and_queries_conflict(self, query_file, catalog, capsys):
        with pytest.raises(SystemExit):
            twigm_main(["--queries", query_file, "//a", catalog])

    def test_missing_query_is_an_error(self, capsys):
        with pytest.raises(SystemExit):
            twigm_main([])

    def test_bad_query_file(self, tmp_path, catalog, capsys):
        path = tmp_path / "q.txt"
        path.write_text("onlyname\n")
        assert twigm_main(["--queries", str(path), catalog]) == 2
        assert "twigm:" in capsys.readouterr().err

    def test_duplicate_names_rejected(self, tmp_path, catalog, capsys):
        path = tmp_path / "q.txt"
        path.write_text("a //x\na //y\n")
        assert twigm_main(["--queries", str(path), catalog]) == 2

    def test_empty_query_file(self, tmp_path, catalog, capsys):
        path = tmp_path / "q.txt"
        path.write_text("# nothing here\n")
        assert twigm_main(["--queries", str(path), catalog]) == 2


class TestBenchCli:
    @pytest.fixture(autouse=True)
    def _isolated_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_CACHE", str(tmp_path / "cache"))

    def test_list(self, capsys):
        assert bench_main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "7a" in out and "10" in out

    def test_figure6_runs(self, capsys):
        assert bench_main(["--figure", "6"]) == 0
        assert "Figure 6" in capsys.readouterr().out

    def test_figure5_runs(self, capsys):
        assert bench_main(["--figure", "5", "--profile", "tiny"]) == 0
        assert "Figure 5" in capsys.readouterr().out

    def test_no_arguments_is_an_error(self, capsys):
        assert bench_main([]) == 2

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            bench_main(["--figure", "nope"])
