#!/usr/bin/env python3
"""The paper's headline result, live: n² pattern matches in 2n stack entries.

Figure 1 of the paper: the document ``a₁/…/aₙ/b₁/…/bₙ/c₁`` (with ``d``
under a₁ and ``e`` under b₁) gives the query ``//a[d]//b[e]//c`` exactly
n² pattern matches for the single solution c₁.  An engine that stores
matches explicitly (XSQ-style) pays O(n²) space and time; TwigM encodes
all of them in ~2n stack entries and verifies them by testing predicate
flags on the encoding.

This example measures both engines on growing n and prints the scaling
table — the reproduction of the paper's core complexity claim you can
read in ten seconds.

Run::

    python examples/recursive_documents.py
"""

import time

from repro.baselines.explicit import ExplicitMatchEngine
from repro.bench.complexity import CountingTwigM
from repro.stream.tokenizer import parse_string

QUERY = "//a[d]//b[e]//c"


def figure1_document(n: int) -> str:
    """aₙ-nested over bₙ-nested chain with d/e/c as in figure 1(a)."""
    parts = []
    for i in range(n):
        parts.append("<a>")
        if i == 0:
            parts.append("<d/>")
    for j in range(n):
        parts.append("<b>")
        if j == 0:
            parts.append("<e/>")
    parts.append("<c/>")
    parts.append("</b>" * n)
    parts.append("</a>" * n)
    return "".join(parts)


def measure(n: int) -> dict:
    events = list(parse_string(figure1_document(n)))

    twigm = CountingTwigM(QUERY)
    started = time.perf_counter()
    twigm.feed(iter(events))
    twigm_time = time.perf_counter() - started

    explicit = ExplicitMatchEngine()
    started = time.perf_counter()
    explicit_results = explicit.run(QUERY, iter(events))
    explicit_time = time.perf_counter() - started

    assert twigm.results == explicit_results, "engines must agree"
    return {
        "n": n,
        "matches": n * n,
        "twigm_peak": twigm.counts.peak_entries,
        "twigm_time": twigm_time,
        "explicit_peak": explicit.peak_matches,
        "explicit_time": explicit_time,
    }


def main() -> None:
    print(f"query: {QUERY}   (the paper's Q1 over the figure 1 chain)\n")
    header = (f"{'n':>5} {'pattern':>9} {'TwigM':>7} {'TwigM':>9} "
              f"{'explicit':>9} {'explicit':>10}")
    sub = (f"{'':>5} {'matches':>9} {'peak':>7} {'time':>9} "
           f"{'peak':>9} {'time':>10}")
    print(header)
    print(sub)
    for n in (25, 50, 100, 200, 400):
        row = measure(n)
        print(f"{row['n']:>5} {row['matches']:>9} {row['twigm_peak']:>7} "
              f"{row['twigm_time'] * 1000:>7.1f}ms {row['explicit_peak']:>9} "
              f"{row['explicit_time'] * 1000:>8.1f}ms")
    print(
        "\nTwigM's peak state is ~2n (linear) and its time grows linearly;\n"
        "the explicit-match engine holds ~n² records and its time grows\n"
        "quadratically — the gap the paper's figure 7(a) shows on the\n"
        "recursive Book data, isolated to its essence."
    )


if __name__ == "__main__":
    main()
