"""Tests for the counting TwigM (repro.bench.complexity) — the
empirical side of Theorem 4.4 and the figure 1 space claim."""

from repro.bench.complexity import CountingTwigM
from repro.core.twigm import TwigM
from repro.stream.tokenizer import parse_string
from tests.conftest import chain_c1_id, chain_xml


def run_counts(query, xml):
    machine = CountingTwigM(query)
    machine.feed(parse_string(xml))
    return machine


class TestCountersMatchSemantics:
    def test_results_identical_to_plain_twigm(self):
        for query in ("//a[d]//b[e]//c", "//a//b", "//a[@x]/b"):
            for xml in (chain_xml(5), "<a x='1'><b/><d/></a>"):
                plain = TwigM(query)
                plain.feed(parse_string(xml))
                inst = run_counts(query, xml)
                assert inst.results == plain.results, (query, xml)

    def test_pushes_equal_pops(self):
        machine = run_counts("//a[d]//b[e]//c", chain_xml(8))
        assert machine.counts.pushes == machine.counts.pops

    def test_event_count(self):
        machine = run_counts("//a", "<a><b/></a>")
        assert machine.counts.events == 4


class TestPaperSpaceClaim:
    def test_peak_entries_linear_not_quadratic(self):
        """Figure 1 / contribution 1: 2n entries encode n² matches."""
        for n in (10, 20, 40):
            machine = run_counts("//a[d]//b[e]//c", chain_xml(n))
            assert machine.counts.peak_entries <= 2 * n + 2
            assert machine.results == [chain_c1_id(n)]

    def test_work_scales_linearly_on_chain(self):
        """Theorem 4.4: polynomial (here linear) total work in |D|."""
        small = run_counts("//a[d]//b[e]//c", chain_xml(20)).counts.total_work()
        large = run_counts("//a[d]//b[e]//c", chain_xml(40)).counts.total_work()
        # Doubling the data should roughly double the work (not 4x).
        assert large < 3 * small

    def test_flag_sets_bounded_by_depth_times_query(self):
        n = 25
        machine = run_counts("//a[d]//b[e]//c", chain_xml(n))
        counts = machine.counts
        # Each pop touches at most one parent stack (≤ depth entries).
        assert counts.flag_sets <= counts.pops * (2 * n + 2)

    def test_emitted_counter(self):
        machine = run_counts("//a//c", "<a><c/><c/></a>")
        assert machine.counts.emitted == 2
