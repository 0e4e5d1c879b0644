"""Smoke tests of the benchmark itself, on tiny inputs.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
from common import NavigationalOracle, book_text, tail_quantile, xmark_text  # noqa: E402
from layers import layer_of  # noqa: E402
from workloads import EXTRACT_QUERIES, LATE_QUERY, WORKLOADS  # noqa: E402

from repro.baselines.navigational import evaluate_on_document  # noqa: E402
from repro.bench.multiq import multiq_workload  # noqa: E402
from repro.bench.queries import BOOK_QUERIES  # noqa: E402


def bench(workload: str, seed: int, trace: int, cache: Path):
    env = dict(os.environ, PERFBENCH_CACHE=str(cache))
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.3", "--trace", str(trace),
         "--size", "tiny"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None, proc


@pytest.fixture(scope="module")
def cache(tmp_path_factory):
    return tmp_path_factory.mktemp("perfbench-cache")


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_reported_with_unit(workload, trace, cache):
    code, result, proc = bench(workload, 5, trace, cache)
    assert code == 0, proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_second_seed_is_correct(workload, cache):
    code, result, proc = bench(workload, 6, 0, cache)
    assert code == 0, proc.stderr
    assert result["failed"] == 0


def test_corrupted_reference_is_caught(tmp_path):
    code, result, _ = bench("book-recursive", 7, 0, tmp_path)
    assert code == 0 and result["failed"] == 0
    refs = list(tmp_path.glob("ref-ids-*.json"))
    assert len(refs) == 1
    expected = json.loads(refs[0].read_text())
    expected["Q1"] = expected["Q1"][1:]  # drop one expected match
    refs[0].write_text(json.dumps(expected))
    code, result, proc = bench("book-recursive", 7, 0, tmp_path)
    assert code != 0
    assert not result["correct"] and result["failed"] > 0
    assert "MISMATCH book-recursive pull Q1" in proc.stderr


def test_alphabet_view_matches_full_document(tmp_path, monkeypatch):
    monkeypatch.setattr("common.CACHE", tmp_path)
    text = xmark_text(50_000, 5)
    oracle = NavigationalOracle(text)
    queries = [*multiq_workload(40, 5).values(), LATE_QUERY,
               *EXTRACT_QUERIES.values(), "//*[name]", "//person[not(age)]"]
    for query in queries:
        assert oracle.ids(query) == evaluate_on_document(oracle.document, query), query
    oracle = NavigationalOracle(book_text(60_000, 5))
    for spec in BOOK_QUERIES:
        assert oracle.ids(spec.xpath) == evaluate_on_document(
            oracle.document, spec.xpath), spec.qid


def test_tail_quantile_needs_ten_samples_beyond():
    samples = [float(i) for i in range(1, 2001)]
    value, quantile = tail_quantile(samples)
    assert quantile == 0.99 and 1979 < value < 1981
    value, quantile = tail_quantile(samples[:200])
    assert quantile == pytest.approx(0.95)


def test_layer_names_follow_modules():
    assert layer_of("/x/src/repro/stream/tokenizer.py") == "stream.tokenizer"
    assert layer_of("/x/src/repro/multiq/router.py") == "multiq"
    assert layer_of("/x/src/repro/stream/events.py") == "stream.other"
    assert layer_of("<repro.compile.codegen twigm>") == "compile"
    assert layer_of("/usr/lib/python3.11/json/encoder.py") is None
    assert layer_of(str(BENCH / "workloads.py")) == "bench"


def test_metric_lists_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".cache", ".out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "book-recursive",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout.strip() == ""
