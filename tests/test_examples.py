"""Integration tests: every example script runs to completion.

Examples are the library's living documentation; a broken one is a bug.
Each is executed in-process (importing its module and calling its entry
point with scaled-down parameters where available) so failures carry
real tracebacks, not just exit codes.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


def load_example(name: str):
    path = EXAMPLES_DIR / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"examples.{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)  # module-level code only defines things
    return module


class TestExamplesRun:
    def test_quickstart(self, capsys):
        module = load_example("quickstart")
        module.one_shot()
        module.fragments()
        module.engine_dispatch()
        module.push_style()
        module.error_handling()
        out = capsys.readouterr().out
        assert "cheap books" in out
        assert "query error" in out
        assert "  <title>Streaming XPath</title>\n" in out

    def test_stock_feed_monitor(self, capsys):
        module = load_example("stock_feed_monitor")
        module.main(n_ticks=60, seed=3)
        out = capsys.readouterr().out
        assert "alerts" in out

    def test_recursive_documents_measure(self, capsys):
        module = load_example("recursive_documents")
        row = module.measure(30)
        assert row["matches"] == 900
        assert row["twigm_peak"] <= 2 * 30 + 2
        assert row["explicit_peak"] >= 900

    def test_auction_watch(self, capsys):
        module = load_example("auction_watch")
        module.main(scale=0.5)
        out = capsys.readouterr().out
        assert "auction site" in out
        assert "—" in out  # unsupported cells shown

    def test_machine_tour(self, capsys):
        module = load_example("machine_tour")
        module.pathm_example()
        module.branchm_example()
        module.twigm_example()
        module.boolean_example()
        out = capsys.readouterr().out
        assert "PathM" in out and "TwigM" in out
        assert "solutions" in out

    def test_protein_annotations_pieces(self, capsys, tmp_path):
        module = load_example("protein_annotations")
        corpus = module.build_corpus(tmp_path, 40)
        module.describe(corpus)
        module.count_by_organism(corpus)
        module.fragments_of_collaborations(corpus)
        out = capsys.readouterr().out
        assert "entries" in out
        assert "   <citation volume=" in out

    def test_all_examples_are_covered(self):
        """A new example script must get a runner test here."""
        scripts = {path.stem for path in EXAMPLES_DIR.glob("*.py")}
        covered = {
            "quickstart", "stock_feed_monitor", "recursive_documents",
            "auction_watch", "machine_tour", "protein_annotations",
        }
        assert scripts == covered, f"uncovered examples: {scripts - covered}"
