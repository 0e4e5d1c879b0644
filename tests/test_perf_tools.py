"""Smoke tests: stream reuse, the profiler CLI, the hotpath benchmark."""

from __future__ import annotations

import json

import pytest

from repro.bench.hotpath import chain_corpus, run_benchmark, write_report
from repro.cli import main as cli_main
from repro.core.processor import XPathStream
from repro.obs.profiling import profile_pipeline


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_CACHE", str(tmp_path / "cache"))


class TestStreamReuse:
    """One compiled query evaluated over many documents."""

    def test_runs_are_independent(self, book_catalog_xml):
        stream = XPathStream("//book//title")
        first = list(stream.evaluate(book_catalog_xml))
        stream.reset()
        second = stream.evaluate(book_catalog_xml)
        assert first == second == XPathStream("//book//title").evaluate(
            book_catalog_xml
        )
        assert first

    def test_on_match_mode(self, book_catalog_xml):
        seen = []
        stream = XPathStream("//title", on_match=seen.append)
        assert stream.evaluate(book_catalog_xml) == []
        assert seen == XPathStream("//title").evaluate(book_catalog_xml)

    def test_engine_name(self):
        assert XPathStream("//a//b").engine_name == "dfa"


class TestProfilePipeline:
    def test_profile_table_and_ids(self, book_catalog_xml):
        table, ids = profile_pipeline("//book//title", book_catalog_xml, top=5)
        assert ids == XPathStream("//book//title").evaluate(book_catalog_xml)
        assert "function calls" in table

    def test_bad_sort_rejected(self):
        with pytest.raises(ValueError, match="sort"):
            profile_pipeline("//a", "<a/>", sort="warp")

    def test_cli_subcommand(self, tmp_path, capsys):
        path = tmp_path / "doc.xml"
        path.write_text("<r><a><b/></a></r>", encoding="utf-8")
        assert cli_main(["profile", "//a/b", str(path), "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "1 solutions" in out

    def test_cli_bad_query_is_a_clean_error(self, tmp_path, capsys):
        path = tmp_path / "doc.xml"
        path.write_text("<r/>", encoding="utf-8")
        assert cli_main(["profile", "//a[", str(path)]) == 2
        assert "twigm:" in capsys.readouterr().err


class TestHotpathBenchmark:
    def test_quick_run_shape_and_gate(self, tmp_path):
        payload = run_benchmark(profile="tiny", repeats=1)
        assert set(payload["corpora"]) == {"xmark", "chain"}
        for corpus in payload["corpora"].values():
            assert corpus["bytes"] > 0 and corpus["events"] > 0
            assert corpus["tokenizer"]["speedup"] is not None
            for row in corpus["queries"].values():
                for config in ("pull", "push"):
                    assert row[config]["seconds"] > 0
                    assert row[config]["mb_per_s"] > 0
                    assert row[config]["events_per_s"] > 0
        summary = payload["summary"]
        assert summary["xmark_min_push_vs_pull"] is not None
        report = tmp_path / "BENCH_core.json"
        write_report(payload, str(report))
        assert json.loads(report.read_text())["benchmark"] == "hotpath"

    def test_chain_corpus_cached_and_well_formed(self):
        corpus = chain_corpus("tiny")
        assert corpus.path.exists()
        ids = XPathStream("//a//b").evaluate(str(corpus.path))
        assert ids  # deep recursion produces matches
        assert corpus.path == chain_corpus("tiny").path  # cached
