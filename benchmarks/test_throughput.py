"""Throughput regression benchmarks for the substrate and the engines.

These are the library's own performance budget (not a paper figure):
events/second for the strict tokenizer (Expat) against the pure-Python
reference scanner, and engine event-processing rates with parsing
factored out.  `extra_info` carries the rates so a CI
pipeline can watch for regressions.
"""

import pytest

from benchmarks._grid import ENGINES
from repro.bench.hotpath import reference_events
from repro.core.twigm import TwigM
from repro.stream.tokenizer import parse_string


@pytest.fixture(scope="module")
def book_xml(book_corpus):
    return book_corpus.path.read_text(encoding="utf-8")


@pytest.fixture(scope="module")
def book_events_list(book_xml):
    return list(parse_string(book_xml))


@pytest.mark.benchmark(group="throughput-parsing")
@pytest.mark.parametrize("source", ["expat", "reference"])
def test_parser_throughput(benchmark, source, book_xml):
    parse = parse_string if source == "expat" else reference_events

    def run():
        return sum(1 for _ in parse(book_xml))

    events = benchmark(run)
    rate = events / benchmark.stats.stats.mean
    benchmark.extra_info.update(events=events, events_per_second=round(rate))
    assert events > 0


@pytest.mark.benchmark(group="throughput-engines")
@pytest.mark.parametrize("query_kind, query", [
    ("path", "//section//title"),
    ("pred", "//section[title]//figure"),
    ("twig", "//book//section[title][figure/image]//p"),
])
def test_twigm_event_rate(benchmark, query_kind, query, book_events_list):
    def run():
        machine = TwigM(query)
        machine.feed(iter(book_events_list))
        return machine.results

    results = benchmark(run)
    rate = len(book_events_list) / benchmark.stats.stats.mean
    benchmark.extra_info.update(
        query=query, results=len(results), events_per_second=round(rate)
    )


@pytest.mark.benchmark(group="throughput-engines")
def test_lazy_dfa_event_rate(benchmark, book_events_list):
    engine = ENGINES["XMLTK*"]

    def run():
        return engine.run("//section//title", iter(book_events_list))

    results = benchmark(run)
    rate = len(book_events_list) / benchmark.stats.stats.mean
    benchmark.extra_info.update(results=len(results), events_per_second=round(rate))


@pytest.mark.benchmark(group="throughput-machine-build")
def test_query_compilation_rate(benchmark):
    from repro.bench.queries import QUERY_SETS
    from repro.core.machine import build_machine
    from repro.xpath.querytree import compile_query

    queries = [spec.xpath for specs in QUERY_SETS.values() for spec in specs]

    def run():
        return [build_machine(compile_query(query)) for query in queries]

    machines = benchmark(run)
    assert len(machines) == 30
