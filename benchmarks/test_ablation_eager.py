"""Ablation — eager emission vs. root-close buffering.

When no trunk ancestor of the return node has predicates, TwigM can emit
at the return element's close (eager) instead of carrying candidate sets
to the root.  This bench quantifies what that buys on a deep corpus:

* *memory*: candidate sets never populate ancestor stacks;
* *latency*: first result arrives as soon as it is decidable.

Results are asserted identical either way.
"""

import pytest

from repro.bench.harness import measure_memory
from repro.core.results import CallbackSink, CollectingSink, CountingSink
from repro.core.twigm import TwigM


@pytest.fixture(scope="module")
def events(book_corpus):
    return list(book_corpus.events())


#: Predicates only at/below the return node — eager-eligible.
EAGER_QUERY = "//book//figure[image]"


@pytest.mark.benchmark(group="ablation-eager")
@pytest.mark.parametrize("mode", ["eager", "buffered"])
def test_time(benchmark, mode, events):
    eager = None if mode == "eager" else False

    def run():
        machine = TwigM(EAGER_QUERY, sink=CountingSink(), eager=eager)
        machine.feed(iter(events))
        return machine.sink.count

    emissions = benchmark(run)
    benchmark.extra_info.update(mode=mode, emissions=emissions)
    assert emissions > 0


@pytest.mark.benchmark(group="ablation-eager")
def test_memory_and_equivalence(benchmark, events):
    def compare():
        def run(eager):
            sink = CollectingSink()
            usage = measure_memory(
                lambda: TwigM(EAGER_QUERY, sink=sink, eager=eager).run(iter(events))
            )
            return sink.results, usage.peak_bytes

        eager_results, eager_peak = run(None)
        lazy_results, lazy_peak = run(False)
        return eager_results, eager_peak, lazy_results, lazy_peak

    eager_results, eager_peak, lazy_results, lazy_peak = benchmark.pedantic(
        compare, rounds=1, iterations=1
    )
    benchmark.extra_info.update(eager_peak=eager_peak, buffered_peak=lazy_peak)
    assert sorted(eager_results) == sorted(lazy_results)
    # Eager never does candidate-set work, so it should not use more.
    assert eager_peak <= lazy_peak * 1.2


@pytest.mark.benchmark(group="ablation-eager")
def test_first_result_latency(benchmark, events):
    """Events processed before the first emission: eager fires earlier."""

    class FirstHit(Exception):
        pass

    def events_until_first(eager) -> int:
        count = 0

        def boom(_node_id):
            raise FirstHit

        machine = TwigM(EAGER_QUERY, sink=CallbackSink(boom), eager=eager)
        for event in events:
            count += 1
            try:
                machine.feed([event])
            except FirstHit:
                return count
        return count

    def compare():
        return events_until_first(None), events_until_first(False)

    eager_at, lazy_at = benchmark.pedantic(compare, rounds=1, iterations=1)
    benchmark.extra_info.update(eager_first=eager_at, buffered_first=lazy_at)
    assert eager_at <= lazy_at
