"""Tests for the streaming rewrite engine (repro.transform.rewrite)."""

import json

import pytest

from repro.bench.hotpath import reference_events
from repro.errors import CheckpointError, TransformError
from repro.stream.events import EventCollector
from repro.transform.rewrite import (
    RewriteEngine,
    RewriteRule,
    callback,
    drop,
    extract,
    rename,
    replace,
    rewrite_string,
    wrap,
)

DOC = (
    '<catalog><book id="1"><title>First</title><price>29</price></book>'
    '<book id="2"><title>Second</title><price>45</price></book>'
    "<note>keep</note></catalog>"
)


class TestActions:
    def test_drop(self):
        assert rewrite_string(DOC, [drop("//book")]) == (
            "<catalog><note>keep</note></catalog>"
        )

    def test_rename(self):
        out = rewrite_string("<r><a>x</a></r>", [rename("//a", "b")])
        assert out == "<r><b>x</b></r>"

    def test_rename_keeps_attributes(self):
        out = rewrite_string('<r><a k="v">x</a></r>', [rename("//a", "b")])
        assert out == '<r><b k="v">x</b></r>'

    def test_wrap(self):
        out = rewrite_string("<r><a>x</a></r>", [wrap("//a", "w")])
        assert out == "<r><w><a>x</a></w></r>"

    def test_wrap_with_attributes(self):
        out = rewrite_string(
            "<r><a/></r>", [wrap("//a", "w", k="v")]
        )
        assert out == '<r><w k="v"><a/></w></r>'

    def test_replace(self):
        out = rewrite_string(
            "<r><a>secret</a><b/></r>", [replace("//a", "<redacted/>")]
        )
        assert out == "<r><redacted/><b/></r>"

    def test_replace_with_subtree(self):
        out = rewrite_string(
            "<r><a/></r>", [replace("//a", "<x><y>t</y></x>")]
        )
        assert out == "<r><x><y>t</y></x></r>"

    def test_callback_transforms_events(self):
        def upper(events):
            for event in events:
                if hasattr(event, "text"):
                    yield type(event)(event.text.upper(), event.level)
                else:
                    yield event

        out = rewrite_string("<r><a>hi</a></r>", [callback("//a", upper)])
        assert out == "<r><a>HI</a></r>"

    def test_extract_action_delivers_and_drops(self):
        sink = EventCollector()
        out = rewrite_string("<r><a>x</a><b/></r>", [extract("//a", sink)])
        assert out == "<r><b/></r>"
        assert sink.events[0].tag == "a"
        assert sink.events[0].level == 1
        assert sink.events[0].node_id == 1

    def test_unmatched_stream_passes_through(self):
        out = rewrite_string(DOC, [drop("//missing")])
        assert out == DOC


class TestPredicates:
    def test_deferred_rule_buffers_until_verdict(self):
        out = rewrite_string(
            "<r><a><b/></a><a/></r>", [drop("//a[b]")]
        )
        assert out == "<r><a/></r>"

    def test_value_test_rule(self):
        out = rewrite_string(
            DOC, [drop('//book[title = "Second"]')]
        )
        assert "Second" not in out
        assert "First" in out


class TestPriority:
    def test_first_rule_wins(self):
        out = rewrite_string(
            "<r><a/></r>", [rename("//a", "first"), rename("//a", "second")]
        )
        assert out == "<r><first/></r>"

    def test_deferred_rule_outranks_later_immediate(self):
        out = rewrite_string(
            "<r><a><b/></a><a/></r>",
            [drop("//a[b]"), rename("//a", "z")],
        )
        assert out == "<r><z/></r>"

    def test_immediate_fallback_when_deferred_says_no(self):
        out = rewrite_string(
            "<r><a/></r>", [drop("//a[b]"), rename("//a", "z")]
        )
        assert out == "<r><z/></r>"

    def test_rules_fired_counts(self):
        engine = RewriteEngine([rename("//a", "z"), drop("//b")])
        engine.evaluate("<r><a/><b/><a/></r>")
        assert engine.rules_fired == [2, 1]


class TestNesting:
    def test_rule_inside_dropped_subtree_is_inert(self):
        out = rewrite_string(
            "<r><a><b/></a></r>", [drop("//a"), rename("//b", "z")]
        )
        assert out == "<r/>"

    def test_nested_matches_of_one_rule(self):
        out = rewrite_string(
            "<r><a><a>x</a></a></r>", [wrap("//a[a]", "outer")]
        )
        assert out == "<r><outer><a><a>x</a></a></outer></r>"

    def test_rename_then_inner_wrap(self):
        out = rewrite_string(
            "<r><a><b/></a></r>", [rename("//a", "z"), wrap("//b", "w")]
        )
        assert out == "<r><z><w><b/></w></z></r>"

    def test_output_not_rematched(self):
        # rename a->b does not trigger the b rule on its own output.
        out = rewrite_string(
            "<r><a/><b/></r>", [rename("//a", "b"), drop("//b")]
        )
        assert out == "<r><b/></r>"


class TestIdempotence:
    @pytest.mark.parametrize("rules", [
        [drop("//secret")],
        [rename("//old", "new")],
        [drop("//a[b]"), rename("//c", "d")],
    ])
    def test_second_pass_is_identity(self, rules):
        doc = ("<r><secret>x</secret><old>y</old><a><b/></a>"
               "<c/><keep/></r>")
        once = rewrite_string(doc, rules)
        assert rewrite_string(once, rules) == once


class TestPullPushIdentity:
    @pytest.mark.parametrize("rules", [
        [drop("//book")],
        [rename("//title", "name")],
        [drop('//book[title = "Second"]'), wrap("//note", "meta")],
    ])
    def test_byte_identical(self, rules):
        specs = [rule.spec() for rule in rules]
        reference = RewriteEngine(
            [RewriteRule.from_spec(s) for s in specs]).evaluate(reference_events(DOC))
        push = RewriteEngine(
            [RewriteRule.from_spec(s) for s in specs]).evaluate(DOC)
        assert push == reference


class TestOutputHandler:
    def test_events_mode_renormalizes(self):
        collector = EventCollector()
        engine = RewriteEngine([drop("//book")], output=collector)
        engine.evaluate(DOC)
        events = collector.events
        # Levels and ids are recomputed for the transformed stream.
        starts = [e for e in events if hasattr(e, "node_id")]
        assert [e.node_id for e in starts] == list(
            range(1, len(starts) + 1))
        assert starts[0].level == 1

    def test_on_chunk_streams(self):
        chunks = []
        engine = RewriteEngine([drop("//book")], on_chunk=chunks.append,
                               chunk_size=4)
        engine.evaluate(DOC)
        assert "".join(chunks) == "<catalog><note>keep</note></catalog>"


class TestSnapshotRestore:
    def test_mid_stream_snapshot_resumes_exactly(self):
        rules = [drop('//book[title = "Second"]'), wrap("//note", "meta")]
        expected = RewriteEngine(
            [RewriteRule.from_spec(r.spec()) for r in rules]
        ).evaluate(DOC)

        engine = RewriteEngine(rules)
        cut = DOC.index("<price>45")  # inside an undecided subtree
        engine.feed_text(DOC[:cut])
        blob = json.loads(json.dumps(engine.snapshot()))

        restored = RewriteEngine.restore(blob)
        restored.feed_text(DOC[cut:])
        assert restored.close() == expected

    def test_callback_rule_needs_function_on_restore(self):
        engine = RewriteEngine([callback("//a", lambda ev: ev)])
        engine.feed_text("<r>")
        blob = engine.snapshot()
        with pytest.raises(CheckpointError):
            RewriteEngine.restore(blob)
        restored = RewriteEngine.restore(
            blob, callbacks={0: lambda ev: ev})
        restored.feed_text("<a>x</a></r>")
        assert restored.close() == "<r><a>x</a></r>"


class TestValidation:
    def test_no_rules_rejected(self):
        with pytest.raises(TransformError):
            RewriteEngine([])

    def test_unknown_action_rejected(self):
        with pytest.raises(TransformError):
            RewriteRule("//a", "explode")

    def test_rename_needs_target(self):
        with pytest.raises(TransformError):
            RewriteRule("//a", "rename")

    def test_replace_needs_xml(self):
        with pytest.raises(TransformError):
            RewriteRule("//a", "replace", replacement="<oops>")

    def test_callback_must_keep_nesting(self):
        def truncate(events):
            return list(events)[:-1]  # drops the closing end tag

        engine = RewriteEngine([callback("//a", truncate)])
        with pytest.raises(TransformError):
            engine.evaluate("<r><a>x</a></r>")

    def test_truncated_input_detected(self):
        from repro.stream.events import StartElement

        engine = RewriteEngine([drop("//a[b]")])
        # A truncated event stream (no tokenizer): the undecided hole for
        # <a> can never resolve.
        engine.feed_events([
            StartElement("r", 1, 1, {}),
            StartElement("a", 2, 2, {}),
        ])
        with pytest.raises(TransformError):
            engine.close()
