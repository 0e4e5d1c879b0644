"""Ablations — design choices DESIGN.md calls out.

* PathM / BranchM specialisation vs. running TwigM on everything
  (the processor's fragment dispatch);
* lazy-DFA state footprint vs. wildcard count (XMLTK's weakness);
* the strict tokenizer (Expat) vs. the pure-Python reference scanner
  (event-source swap);
* Theorem 4.4's operation bound checked against the counting TwigM.
"""

import pytest

from repro.baselines.lazydfa import LazyDfaEngine
from repro.bench.complexity import CountingTwigM
from repro.core.processor import XPathStream
from repro.bench.hotpath import reference_events
from repro.stream.events import count_elements, document_depth
from repro.stream.tokenizer import parse_string
from repro.xpath.querytree import compile_query


@pytest.mark.benchmark(group="ablation-dispatch")
@pytest.mark.parametrize("engine", ["pathm", "twigm"])
def test_path_query_specialisation(benchmark, engine, book_corpus):
    """PathM exists because predicates cost bookkeeping even when absent:
    the specialised machine should not lose to the general one."""
    query = "//section//title"
    stream_results = benchmark(
        lambda: XPathStream(query, engine=engine).evaluate(book_corpus.events())
    )
    benchmark.extra_info.update(engine=engine, results=len(stream_results))
    assert stream_results


@pytest.mark.benchmark(group="ablation-dispatch")
@pytest.mark.parametrize("engine", ["branchm", "twigm"])
def test_branch_query_specialisation(benchmark, engine):
    xml = "<r>" + "<a><b><c/></b><d/></a>" * 2000 + "</r>"
    events = list(parse_string(xml))
    query = "/r/a[d]/b/c"
    results = benchmark(
        lambda: XPathStream(query, engine=engine).evaluate(iter(events))
    )
    benchmark.extra_info.update(engine=engine, results=len(results))
    assert len(results) == 2000


@pytest.mark.benchmark(group="ablation-dfa-states")
@pytest.mark.parametrize("stars", [0, 1, 2, 3])
def test_lazy_dfa_state_blowup_with_wildcards(benchmark, stars, book_corpus):
    """Figure 7 commentary: XMLTK's DFA degrades with multiple '*'."""
    inner = "//".join(["*"] * stars + ["title"])
    query = f"//{inner}" if stars == 0 else f"//{inner}"
    engine = LazyDfaEngine()
    benchmark(lambda: engine.run(query, book_corpus.events()))
    states = engine.last_dfa.state_count
    benchmark.extra_info.update(stars=stars, dfa_states=states)
    if stars >= 2:
        plain = LazyDfaEngine()
        plain.run("//title", book_corpus.events())
        assert states > plain.last_dfa.state_count


@pytest.mark.benchmark(group="ablation-event-source")
@pytest.mark.parametrize("source", ["expat", "reference"])
def test_event_source_swap(benchmark, source, book_corpus):
    """Both event sources drive the same engine to the same answer; the
    strict tokenizer's Expat path mirrors the paper's parser choice."""
    xml = book_corpus.path.read_text(encoding="utf-8")
    parse = parse_string if source == "expat" else reference_events
    results = benchmark(
        lambda: XPathStream("//section[title]//figure").evaluate(parse(xml))
    )
    benchmark.extra_info.update(source=source, results=len(results))
    reference = XPathStream("//section[title]//figure").evaluate(reference_events(xml))
    assert sorted(results) == sorted(reference)


@pytest.mark.benchmark(group="ablation-theorem44")
@pytest.mark.parametrize("qid_xpath", [
    ("Q5", "//section[title]//figure"),
    ("Q9", "//book//section[title][figure/image]//p"),
])
def test_theorem_4_4_operation_bound(benchmark, qid_xpath, book_corpus):
    """Total machine operations ≤ c · (|Q| + R·B) · |Q| · |D|."""
    qid, xpath = qid_xpath
    events = list(book_corpus.events())

    def run():
        machine = CountingTwigM(xpath)
        machine.feed(iter(events))
        return machine

    machine = benchmark(run)
    query = compile_query(xpath)
    q_size = query.size()
    depth = document_depth(iter(events))
    branching = max(
        (len(node.children) for node in query.iter_nodes()), default=1
    )
    d_size = count_elements(iter(events)) * 2
    bound = (q_size + depth * branching) * q_size * d_size
    work = machine.counts.total_work()
    benchmark.extra_info.update(qid=qid, work=work, bound=bound)
    assert work <= bound, f"{work} operations exceed the Theorem 4.4 bound {bound}"
