"""Ablation — shared-automaton filtering vs. per-query machines.

The YFilter insight the related work cites: with N standing path
queries, per-event work should not grow ~N.  The shared automaton pays
one cached DFA transition per event; N separate PathM machines pay N
dispatches.  This bench measures both at growing N and asserts the
scaling gap.
"""

import random
import time

import pytest

from repro.core.filtering import PathFilterSet
from repro.multiq import MultiQueryEngine
from repro.stream.tokenizer import parse_string

TAGS = ("book", "section", "title", "author", "figure", "image", "p")


def random_path_query(rng: random.Random) -> str:
    length = rng.randint(1, 3)
    parts = []
    for _ in range(length):
        axis = rng.choice(("/", "//"))
        name = rng.choice(TAGS + ("*",))
        parts.append(f"{axis}{name}")
    query = "".join(parts)
    return query if query.startswith("//") else "/" + query.lstrip("/")


def query_set(n: int, seed: int = 9) -> dict[str, str]:
    rng = random.Random(seed)
    return {f"q{i}": random_path_query(rng) for i in range(n)}


@pytest.fixture(scope="module")
def events(book_corpus):
    return list(book_corpus.events())


@pytest.mark.benchmark(group="ablation-filtering")
@pytest.mark.parametrize("n_queries", [10, 50, 200])
def test_shared_automaton(benchmark, n_queries, events):
    queries = query_set(n_queries)
    filters = PathFilterSet(queries)
    results = benchmark(lambda: filters.run(iter(events)))
    benchmark.extra_info.update(
        n_queries=n_queries,
        dfa_states=filters.state_count,
        total_matches=sum(len(ids) for ids in results.values()),
    )


@pytest.mark.benchmark(group="ablation-filtering")
@pytest.mark.parametrize("n_queries", [10, 50])
def test_per_query_machines(benchmark, n_queries, events):
    queries = query_set(n_queries)

    def run():
        feed = MultiQueryEngine(queries)
        feed.feed_events(iter(events))
        return feed.results()

    results = benchmark(run)
    benchmark.extra_info.update(
        n_queries=n_queries,
        total_matches=sum(len(ids) for ids in results.values()),
    )


@pytest.mark.benchmark(group="ablation-filtering")
def test_shared_scales_sublinearly_in_query_count(benchmark, events):
    """Time(200 queries) / time(10 queries): shared automaton must stay
    far below the 20x a per-query design pays."""

    def timed(n: int) -> float:
        filters = PathFilterSet(query_set(n))
        best = float("inf")
        for _ in range(3):
            started = time.perf_counter()
            filters.run(iter(events))
            best = min(best, time.perf_counter() - started)
        return best

    def compare():
        return timed(10), timed(200)

    small, large = benchmark.pedantic(compare, rounds=1, iterations=1)
    ratio = large / small
    benchmark.extra_info.update(t10=small, t200=large, ratio=round(ratio, 2))
    assert ratio < 8.0, f"shared filtering degraded {ratio:.1f}x for 20x queries"


@pytest.mark.benchmark(group="ablation-filtering")
def test_shared_agrees_with_per_query(benchmark, events):
    queries = query_set(25)

    def compare():
        shared = PathFilterSet(queries).run(iter(events))
        feed = MultiQueryEngine(queries)
        feed.feed_events(iter(events))
        return shared, feed.results()

    shared, individual = benchmark.pedantic(compare, rounds=1, iterations=1)
    for name in queries:
        assert shared[name] == individual[name], name
