"""``python -m repro store`` end to end: ingest | replay | index | compact."""

from __future__ import annotations

import json

import pytest

from repro.cli import main as repro_main
from repro.core.processor import XPathStream
from repro.store.cli import main as store_main

DOC = (
    "<catalog>"
    + "".join(
        f"<book><title>T{i}</title><price>{10 + i}</price></book>"
        for i in range(150)
    )
    + "<misc>" + "".join(f"<x><y>z{i}</y></x>" for i in range(5)) + "</misc>"
    + "</catalog>"
)


@pytest.fixture
def doc_file(tmp_path):
    path = tmp_path / "doc.xml"
    path.write_text(DOC)
    return str(path)


@pytest.fixture
def query_file(tmp_path):
    path = tmp_path / "queries.txt"
    path.write_text("titles\t//book/title\nrare\t//misc//y\n")
    return str(path)


def run(capsys, *argv) -> "tuple[int, str, str]":
    code = store_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestIngest:
    def test_plain(self, tmp_path, doc_file, capsys):
        code, out, _ = run(
            capsys, "ingest", doc_file, str(tmp_path / "s"), "--sync", "none"
        )
        assert code == 0
        assert "ingested" in out

    def test_json_with_queries(self, tmp_path, doc_file, query_file, capsys):
        code, out, _ = run(
            capsys, "ingest", doc_file, str(tmp_path / "s"),
            "--queries", query_file, "--checkpoint-interval", "40",
            "--segment-events", "32", "--sync", "none", "--json",
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["events"] > 0
        assert len(summary["checkpoints"]) >= 2
        assert summary["results"] == {"titles": 150, "rare": 5}

    def test_missing_source(self, tmp_path, capsys):
        code, _, err = run(capsys, "ingest", "/no/such.xml", str(tmp_path / "s"))
        assert code == 2
        assert "repro store:" in err


class TestReplay:
    @pytest.fixture
    def store(self, tmp_path, doc_file, query_file, capsys):
        run(capsys, "ingest", doc_file, str(tmp_path / "s"),
            "--queries", query_file, "--checkpoint-interval", "40",
            "--segment-events", "32", "--sync", "none")
        return str(tmp_path / "s")

    def test_single_query(self, store, capsys):
        code, out, _ = run(capsys, "replay", store, "--query", "//misc//y")
        assert code == 0
        expected = XPathStream("//misc//y").evaluate(DOC)
        assert [int(line) for line in out.splitlines()] == expected

    def test_query_file_output(self, store, query_file, capsys):
        code, out, _ = run(capsys, "replay", store, "--queries", query_file)
        assert code == 0
        lines = [line.split("\t") for line in out.splitlines()]
        assert sum(1 for name, _ in lines if name == "titles") == 150
        assert sum(1 for name, _ in lines if name == "rare") == 5

    def test_from_checkpoint_resumes_embedded_engine(self, store, capsys):
        code, list_out, _ = run(capsys, "index", store, "--json")
        checkpoints = [
            ck["id"]
            for seg in json.loads(list_out)["segments"]
            for ck in seg["checkpoints"]
        ]
        assert checkpoints
        for ck in checkpoints:
            code, out, _ = run(capsys, "replay", store, "--from-checkpoint", str(ck))
            assert code == 0
            lines = sorted(out.splitlines())
            reference_code, reference_out, _ = run(
                capsys, "replay", store, "--query", "//book/title"
            )
            titles = {f"titles\t{i}" for i in reference_out.splitlines()}
            assert titles <= set(lines), f"checkpoint {ck} lost results"

    def test_stats_and_no_skip(self, store, capsys):
        code, out_skip, err = run(
            capsys, "replay", store, "--query", "//misc//y", "--stats"
        )
        assert code == 0
        assert "skipped" in err
        code, out_no, _ = run(
            capsys, "replay", store, "--query", "//misc//y", "--no-skip"
        )
        assert out_skip == out_no

    def test_hostile_limits_flag(self, store, capsys):
        code, _, err = run(
            capsys, "replay", store, "--query", "//book/title", "--max-events", "5"
        )
        assert code == 2
        assert "max_total_events" in err

    def test_json(self, store, capsys):
        code, out, _ = run(
            capsys, "replay", store, "--query", "//misc//y", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["results"] == XPathStream("//misc//y").evaluate(DOC)
        assert payload["stats"]["segments_total"] > 0


class TestIndexAndCompact:
    @pytest.fixture
    def store(self, tmp_path, doc_file, capsys):
        run(capsys, "ingest", doc_file, str(tmp_path / "s"),
            "--checkpoint-interval", "40", "--segment-events", "32",
            "--sync", "none")
        return str(tmp_path / "s")

    def test_index_plain_and_verdicts(self, store, capsys):
        code, out, _ = run(capsys, "index", store)
        assert code == 0
        assert "seg-00000001.log" in out
        code, out, _ = run(capsys, "index", store, "--query", "//misc//y")
        assert "SKIP" in out and "skippable:" in out

    def test_index_json_shape(self, store, capsys):
        code, out, _ = run(capsys, "index", store, "--query", "//misc//y", "--json")
        report = json.loads(out)
        assert report["skip_ratio"] > 0
        # Segments cut at text record boundaries: the book records are
        # segments of their own, which the rare query skips.
        assert any(seg["skippable"] and seg["events"] for seg in report["segments"])
        for segment in report["segments"]:
            assert {"file", "tags", "has_text", "skippable", "open_labels"} <= set(segment)
        assert report["segments"][0]["open_labels"] == []
        assert all(seg["open_labels"][:1] == ["catalog"] for seg in report["segments"][1:]
                   if seg["base_event"] < report["total_events"])

    def test_index_reports_gate_verdicts(self, tmp_path, capsys):
        from repro.store.replay import ingest

        text = ("<r>" + "<x>i</x>" * 40 + "<a><c/>" + "<x>i</x>" * 40 + "</a>"
                + "<x>i</x>" * 40 + "</r>")
        store = str(tmp_path / "g")
        ingest([text[i:i + 32] for i in range(0, len(text), 32)], store,
               segment_events=8, sync="none")
        code, out, _ = run(capsys, "index", store, "--query", "//a[c]/x", "--json")
        report = json.loads(out)
        assert report["interest"]["gates"] == ["a"]
        for segment in report["segments"]:
            inside = "a" in segment["tags"] or "a" in segment["open_labels"]
            assert segment["skippable"] is not inside, segment
        code, out, _ = run(capsys, "index", store, "--query", "//a[c]/x")
        assert "open=r/a" in out

    def test_compact_then_replay(self, store, capsys):
        _, out, _ = run(capsys, "index", store, "--json")
        checkpoints = [
            ck["id"]
            for seg in json.loads(out)["segments"]
            for ck in seg["checkpoints"]
        ]
        target = checkpoints[-1]
        code, out, _ = run(
            capsys, "compact", store, "--before-checkpoint", str(target),
            "--sync", "none", "--json",
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["segments_dropped"] >= 1
        # Pre-compaction history is gone; cold replay now errors...
        code, _, err = run(capsys, "replay", store, "--query", "//book/title")
        assert code == 2 and "compacted" in err
        # ...but the checkpoint fast path still works.
        code, _, _ = run(capsys, "replay", store, "--from-checkpoint", str(target))
        assert code in (0, 1, 2)  # engineless checkpoint w/o target errors cleanly

    def test_compact_unknown_checkpoint(self, store, capsys):
        code, _, err = run(capsys, "compact", store, "--before-checkpoint", "999")
        assert code == 2
        assert "999" in err


class TestDispatch:
    def test_repro_main_routes_store(self, tmp_path, doc_file, capsys):
        code = repro_main(
            ["store", "ingest", doc_file, str(tmp_path / "s"), "--sync", "none"]
        )
        assert code == 0
        assert "ingested" in capsys.readouterr().out

    def test_bad_store_dir(self, capsys):
        code, _, err = run(capsys, "replay", "/no/such/store", "--query", "//a")
        assert code == 2
        assert "repro store:" in err
