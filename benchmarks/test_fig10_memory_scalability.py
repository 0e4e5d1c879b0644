"""Figure 10 — memory usage for Q10 as the Book data size increases.

The paper's figure 10: duplicating the Book data 2-6x leaves the
streaming engines' memory constant while Galax and XMLTaskForce grow
faster than the data.  We benchmark Q10 (the '*'-with-predicates twig
query) at factors 1/2/4 and assert both halves of that claim.
"""

import pytest

from benchmarks._grid import ENGINES
from benchmarks._memory import engine_peak
from repro.bench.harness import measure_memory
from repro.bench.queries import get_query

FACTORS = (1, 2, 4)


@pytest.mark.benchmark(group="fig10-memory-scalability")
@pytest.mark.parametrize("factor", FACTORS)
@pytest.mark.parametrize("engine_name", ["TwigM", "XMLTaskForce*"])
def test_fig10_cell(benchmark, factor, engine_name, scaled_corpora):
    query = get_query("book", "Q10")
    corpus = scaled_corpora[factor]
    engine = ENGINES[engine_name]
    peaks: list[int] = []

    def once():
        usage = measure_memory(lambda: engine.run(query.xpath, corpus.events()))
        peaks.append(usage.peak_bytes)
        return usage

    benchmark.pedantic(once, rounds=1, iterations=1)
    benchmark.extra_info.update(
        factor=factor, peak_bytes=peaks[-1], corpus_bytes=corpus.size_bytes()
    )


def _pure_streaming_peak(corpus) -> int:
    """TwigM peak with results streamed out (not stored) — the paper's
    deployment model, where result storage is the consumer's concern."""
    from repro.core.results import CountingSink
    from repro.core.twigm import TwigM

    query = get_query("book", "Q10")

    def run():
        sink = CountingSink()
        TwigM(query.xpath, sink=sink).feed(corpus.events())
        return [sink.count]

    return measure_memory(run).peak_bytes


@pytest.mark.benchmark(group="fig10-memory-scalability")
def test_fig10_streaming_flat_dom_grows(benchmark, scaled_corpora):
    def compare():
        twig = {factor: _pure_streaming_peak(scaled_corpora[factor]) for factor in (1, 4)}
        dom = {
            factor: engine_peak("book", "Q10", "XMLTaskForce*", scaled_corpora[factor])
            for factor in (1, 4)
        }
        return twig, dom

    twig, dom = benchmark.pedantic(compare, rounds=1, iterations=1)
    benchmark.extra_info.update(twig=twig, dom=dom)
    # DOM memory tracks the 4x data growth...
    assert dom[4] > 2.5 * dom[1], f"DOM peaks {dom} should scale with data"
    # ...while streaming memory moves far less than the data does.
    assert twig[4] < 2.5 * max(twig[1], 1), f"streaming peaks {twig} should stay flat"
    # And at every size, streaming is the smaller footprint.
    assert twig[4] < dom[4]
