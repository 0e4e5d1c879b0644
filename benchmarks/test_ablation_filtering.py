"""Ablation — shared-automaton filtering vs. per-query machines.

The YFilter insight the related work cites: with N standing path
queries, per-event work should not grow ~N.  The multi-query engine's
shared path unit (one lazy DFA over every path query) pays one cached
DFA transition per event; N separate PathM machines (kept off the shared
unit by per-query limits) pay N dispatches.  This bench measures both at growing N and asserts the
scaling gap.
"""

import random
import time

import pytest

from repro.multiq import MultiQueryEngine
from repro.stream.recovery import ResourceLimits
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


def shared_engine(queries: dict[str, str]) -> MultiQueryEngine:
    """Every query is predicate-free: one shared DFA unit holds them all."""
    engine = MultiQueryEngine(queries)
    assert engine.unit_count() == 1
    return engine


def per_query_engine(queries: dict[str, str]) -> MultiQueryEngine:
    """Each query on its own PathM: limits keep it off the shared unit."""
    engine = MultiQueryEngine()
    for name, query in queries.items():
        engine.add_query(name, query, limits=ResourceLimits())
    return engine


def run_shared(engine: MultiQueryEngine, events) -> dict[str, list[int]]:
    """One pass; the transition cache survives ``reset`` across passes."""
    engine.reset()
    engine.feed_events(iter(events))
    return engine.results()


def state_count(engine: MultiQueryEngine) -> int:
    (unit,) = engine._registry.units()
    return unit.engine.dfa_state_count


@pytest.mark.benchmark(group="ablation-filtering")
@pytest.mark.parametrize("n_queries", [10, 50, 200])
def test_shared_automaton(benchmark, n_queries, events):
    engine = shared_engine(query_set(n_queries))
    results = benchmark(lambda: run_shared(engine, events))
    benchmark.extra_info.update(
        n_queries=n_queries,
        dfa_states=state_count(engine),
        total_matches=sum(len(ids) for ids in results.values()),
    )


@pytest.mark.benchmark(group="ablation-filtering")
@pytest.mark.parametrize("n_queries", [10, 50])
def test_per_query_machines(benchmark, n_queries, events):
    queries = query_set(n_queries)

    def run():
        feed = per_query_engine(queries)
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
        engine = shared_engine(query_set(n))
        best = float("inf")
        for _ in range(3):
            started = time.perf_counter()
            run_shared(engine, events)
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
        shared = run_shared(shared_engine(queries), events)
        feed = per_query_engine(queries)
        feed.feed_events(iter(events))
        return shared, feed.results()

    shared, individual = benchmark.pedantic(compare, rounds=1, iterations=1)
    for name in queries:
        assert shared[name] == individual[name], name
