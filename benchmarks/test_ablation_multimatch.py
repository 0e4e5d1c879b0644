"""Ablation — the compact encoding vs. explicit pattern matches.

This is the paper's figure 1 / contribution 1 isolated as a measurable
microbenchmark: over the chain document ``a₁…aₙ/b₁…bₙ/c₁`` the query
``//a[d]//b[e]//c`` has n² pattern matches for the single solution c₁.

* TwigM must hold ~2n stack entries and do O(n) work (Theorem 4.4);
* the explicit-match engine (XSQ family) must hold ~n² match records;
* the enumerative DOM engine (Galax family) must enumerate ≥ n² matches.

These assertions use the engines' operation counters, so they are exact,
not timing-flaky.
"""

import pytest

from repro.baselines.enumerative import count_pattern_matches
from repro.baselines.explicit import ExplicitMatchEngine
from repro.bench.complexity import CountingTwigM
from repro.stream.document import build_document
from repro.stream.tokenizer import parse_string

QUERY = "//a[d]//b[e]//c"


def chain(n: int) -> str:
    parts = ["<a>"] + ["<d/>"] + ["<a>"] * (n - 1)
    parts += ["<b>"] + ["<e/>"] + ["<b>"] * (n - 1)
    parts += ["<c/>", "</b>" * n, "</a>" * n]
    return "".join(parts)


@pytest.mark.benchmark(group="ablation-multimatch")
@pytest.mark.parametrize("n", [50, 100, 200])
def test_twigm_linear_state(benchmark, n):
    events = list(parse_string(chain(n)))

    def run():
        machine = CountingTwigM(QUERY)
        machine.feed(iter(events))
        return machine

    machine = benchmark(run)
    counts = machine.counts
    benchmark.extra_info.update(
        n=n, peak_entries=counts.peak_entries, total_work=counts.total_work()
    )
    assert machine.results, "c₁ must be found"
    assert counts.peak_entries <= 2 * n + 2, "state must be ~2n, not n²"
    # Work linear in n: well below the n² match count.
    assert counts.total_work() < 40 * n


@pytest.mark.benchmark(group="ablation-multimatch")
@pytest.mark.parametrize("n", [50, 100, 200])
def test_explicit_engine_quadratic_state(benchmark, n):
    events = list(parse_string(chain(n)))
    engine = ExplicitMatchEngine()

    def run():
        return engine.run(QUERY, iter(events))

    results = benchmark(run)
    benchmark.extra_info.update(n=n, peak_matches=engine.peak_matches)
    assert results, "same answer, different cost"
    assert engine.peak_matches >= n * n, "explicit storage must hold ~n² records"


@pytest.mark.benchmark(group="ablation-multimatch")
@pytest.mark.parametrize("n", [20, 40])
def test_enumerative_engine_enumerates_n_squared(benchmark, n):
    document = build_document(parse_string(chain(n)))

    def run():
        return count_pattern_matches(document, "//a//b//c")

    count = benchmark(run)
    benchmark.extra_info.update(n=n, enumerated=count)
    assert count >= 2 * n * n  # n² (a,b) prefixes + n² full matches


@pytest.mark.benchmark(group="ablation-multimatch")
def test_state_gap_grows_with_n(benchmark):
    """The 2n-vs-n² gap widens: the ratio at n=200 dwarfs the one at 50."""

    def gap(n: int) -> float:
        events = list(parse_string(chain(n)))
        twig = CountingTwigM(QUERY)
        twig.feed(iter(events))
        explicit = ExplicitMatchEngine()
        explicit.run(QUERY, iter(events))
        return explicit.peak_matches / twig.counts.peak_entries

    def compare():
        return gap(50), gap(200)

    small, large = benchmark.pedantic(compare, rounds=1, iterations=1)
    benchmark.extra_info.update(gap_n50=round(small, 1), gap_n200=round(large, 1))
    assert large > 3 * small
