"""Tests for the transform command-line front end (repro.transform.cli)."""

import json

import pytest

from repro.cli import main as top_main
from repro.errors import ReproError
from repro.stream.tokenizer import parse_string
from repro.transform.cli import main, parse_rules

DOC = (
    '<catalog><book id="1"><title>First</title><price>29</price></book>'
    '<book id="2"><title>Second</title><price>45</price></book>'
    "<note>keep</note></catalog>"
)


@pytest.fixture
def doc_path(tmp_path):
    path = tmp_path / "doc.xml"
    path.write_text(DOC)
    return str(path)


class TestSelectCommand:
    def test_fragments_to_stdout(self, doc_path, capsys):
        assert main(["select", "-q", "//book/title", doc_path]) == 0
        out = capsys.readouterr().out
        assert out == "<title>First</title>\n<title>Second</title>\n"

    def test_multiple_queries_labelled(self, doc_path, capsys):
        assert main(["select", "-q", "//title", "-q", "//note",
                     doc_path]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "//title\t<title>First</title>" in lines
        assert "//note\t<note>keep</note>" in lines

    def test_query_file(self, doc_path, tmp_path, capsys):
        queries = tmp_path / "queries.txt"
        queries.write_text("titles\t//title\n# comment\n")
        assert main(["select", "--queries", str(queries), doc_path,
                     "--label"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("titles\t<title>First</title>")

    def test_output_file(self, doc_path, tmp_path):
        out_path = tmp_path / "out.txt"
        assert main(["select", "-q", "//note", doc_path,
                     "--output", str(out_path)]) == 0
        assert out_path.read_text() == "<note>keep</note>\n"

    def test_stats_json(self, doc_path, capsys):
        assert main(["select", "-q", "//title", doc_path, "--stats"]) == 0
        stats = json.loads(capsys.readouterr().err)
        assert stats["command"] == "select"
        assert stats["fragments"] == {"//title": 2}
        assert stats["events"] > 0

    def test_stdin(self, doc_path, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(DOC))
        assert main(["select", "-q", "//note"]) == 0
        assert capsys.readouterr().out == "<note>keep</note>\n"

    def test_no_queries_is_error(self, doc_path, capsys):
        assert main(["select", doc_path]) == 2
        assert "no queries" in capsys.readouterr().err

    def test_store_input(self, doc_path, tmp_path, capsys):
        from repro.store.replay import ingest

        store = str(tmp_path / "log")
        ingest(DOC, store)
        assert main(["select", "-q", "//note", "--store", store]) == 0
        assert capsys.readouterr().out == "<note>keep</note>\n"

    def test_store_stats_report_skipping(self, tmp_path, capsys):
        from repro.store.replay import ingest

        text = "<r>" + "<x>i</x>" * 40 + "<note>keep</note>" + "<x>i</x>" * 40 + "</r>"
        store = str(tmp_path / "log")
        ingest([text[i:i + 32] for i in range(0, len(text), 32)], store,
               segment_events=8, sync="none")
        assert main(["select", "-q", "//note", "--store", store, "--stats"]) == 0
        captured = capsys.readouterr()
        assert captured.out == "<note>keep</note>\n"
        summary = json.loads(captured.err)
        total = len(list(parse_string(text)))
        assert summary["segments_skipped"] > 0
        assert summary["events"] + summary["events_skipped"] == total
        assert 0 < summary["events"] < total


class TestRewriteCommand:
    def test_drop_rule(self, doc_path, tmp_path, capsys):
        rules = tmp_path / "rules.txt"
        rules.write_text("//book\tdrop\n")
        assert main(["rewrite", "--rules", str(rules), doc_path]) == 0
        out = capsys.readouterr().out
        assert out == "<catalog><note>keep</note></catalog>\n"

    def test_rename_and_wrap(self, doc_path, tmp_path, capsys):
        rules = tmp_path / "rules.txt"
        rules.write_text("//book\trename\tentry\n//note\twrap\tmeta\n")
        assert main(["rewrite", "--rules", str(rules), doc_path]) == 0
        out = capsys.readouterr().out
        assert "<entry id=\"1\">" in out
        assert "<meta><note>keep</note></meta>" in out

    def test_stats_reports_rules_fired(self, doc_path, tmp_path, capsys):
        rules = tmp_path / "rules.txt"
        rules.write_text("//book\tdrop\n")
        assert main(["rewrite", "--rules", str(rules), doc_path,
                     "--stats"]) == 0
        stats = json.loads(capsys.readouterr().err)
        assert stats["rules_fired"] == {"//book": 2}

    def test_bad_rules_file(self, doc_path, tmp_path, capsys):
        rules = tmp_path / "rules.txt"
        rules.write_text("//book\texplode\n")
        assert main(["rewrite", "--rules", str(rules), doc_path]) == 2
        assert "unknown action" in capsys.readouterr().err


class TestParseRules:
    def test_all_actions(self, tmp_path):
        path = tmp_path / "rules.txt"
        path.write_text(
            "# comment\n"
            "//a\tdrop\n"
            "//b\trename\tc\n"
            "//d\twrap\te\n"
            "//f\treplace\t<g/>\n"
        )
        rules = parse_rules(str(path))
        assert [rule.action for rule in rules] == [
            "drop", "rename", "wrap", "replace"
        ]

    def test_missing_argument(self, tmp_path):
        path = tmp_path / "rules.txt"
        path.write_text("//a\trename\n")
        with pytest.raises(ReproError):
            parse_rules(str(path))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "rules.txt"
        path.write_text("# nothing\n")
        with pytest.raises(ReproError):
            parse_rules(str(path))


class TestTopLevelDispatch:
    def test_transform_subcommand_routed(self, doc_path, capsys):
        assert top_main(["transform", "select", "-q", "//note",
                         doc_path]) == 0
        assert capsys.readouterr().out == "<note>keep</note>\n"
