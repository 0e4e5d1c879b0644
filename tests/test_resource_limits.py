"""Resource limits: hostile documents must fail fast in O(limit) memory."""

from __future__ import annotations

import pytest

from repro import XPathStream
from repro.errors import ResourceLimitError
from repro.stream.events import CountingHandler
from repro.stream.recovery import RecoveryPolicy, ResourceLimits
from repro.stream.tokenizer import XmlTokenizer, parse_string


class TestLimitsConfig:
    def test_defaults_are_unlimited(self):
        limits = ResourceLimits()
        limits.check("max_depth", 10**9)  # no limit -> no raise

    def test_hardened_profile(self):
        limits = ResourceLimits.hardened()
        assert limits.max_depth == 512
        assert limits.max_attributes == 256

    def test_check_raises_with_context(self):
        limits = ResourceLimits(max_depth=4)
        with pytest.raises(ResourceLimitError) as info:
            limits.check("max_depth", 5)
        assert info.value.limit == "max_depth"
        assert info.value.configured == 4
        assert info.value.observed == 5

    def test_dict_round_trip(self):
        limits = ResourceLimits(max_depth=3, max_text_length=100)
        assert ResourceLimits.from_dict(limits.to_dict()) == limits
        assert ResourceLimits.from_dict(None) is None


class TestErrorReporting:
    """The error must say which limit tripped, the bound, and the value."""

    def test_message_names_limit_bound_and_observation(self):
        error = ResourceLimitError("max_depth", 4, 5)
        message = str(error)
        assert "max_depth" in message
        assert "4" in message and "5" in message
        assert "exceeded" in message
        # Human description of what the limit bounds rides along.
        assert "nesting depth" in message

    def test_message_carries_context_when_given(self):
        error = ResourceLimitError(
            "max_text_length", 100, 250, context="serving session abc123"
        )
        assert "while serving session abc123" in str(error)
        assert error.context == "serving session abc123"

    def test_unknown_limit_name_still_formats(self):
        error = ResourceLimitError("max_future_thing", 1, 2)
        message = str(error)
        assert "max_future_thing=1" in message
        assert "observed 2" in message

    def test_to_dict_is_json_ready(self):
        import json

        error = ResourceLimitError("max_buffered_candidates", 256, 300,
                                   context="query 'books'")
        payload = json.loads(json.dumps(error.to_dict()))
        assert payload["limit"] == "max_buffered_candidates"
        assert payload["configured"] == 256
        assert payload["observed"] == 300
        assert payload["context"] == "query 'books'"
        assert "candidate" in payload["description"]

    def test_check_threads_context_through(self):
        limits = ResourceLimits(max_depth=2)
        with pytest.raises(ResourceLimitError) as info:
            limits.check("max_depth", 9, context="tenant 'acme'")
        assert info.value.context == "tenant 'acme'"
        assert "while tenant 'acme'" in str(info.value)


class TestDepthBomb:
    def test_million_deep_document_rejected_lazily(self):
        """A depth-10⁶ nesting bomb must die after ~limit elements, having
        consumed O(limit) of the input — not after parsing the whole thing."""
        consumed = 0

        def bomb():
            nonlocal consumed
            for _ in range(10**6):
                consumed += 1
                yield "<d>"

        tokenizer = XmlTokenizer(limits=ResourceLimits(max_depth=100))
        with pytest.raises(ResourceLimitError) as info:
            for chunk in bomb():
                for _ in tokenizer.feed(chunk):
                    pass
        assert info.value.limit == "max_depth"
        assert consumed <= 102  # O(limit), not O(input)

    def test_depth_within_limit_passes(self):
        xml = "<d>" * 50 + "</d>" * 50
        events = list(parse_string(xml, limits=ResourceLimits(max_depth=50)))
        assert len(events) == 100


class TestAttributeBomb:
    def test_hundred_thousand_attributes_rejected(self):
        """One element with 10⁵ attributes: max_buffered_input kills the
        giant incomplete tag long before the full input is buffered."""
        consumed = 0

        def bomb():
            nonlocal consumed
            yield "<e "
            for i in range(10**5):
                consumed += 1
                yield f"a{i}='v' "

        tokenizer = XmlTokenizer(limits=ResourceLimits(max_buffered_input=4096))
        with pytest.raises(ResourceLimitError) as info:
            for chunk in bomb():
                for _ in tokenizer.feed(chunk):
                    pass
        assert info.value.limit == "max_buffered_input"
        assert consumed < 1000  # peak buffer O(limit), not O(input)

    def test_max_attributes_on_complete_tag(self):
        tag = "<e " + " ".join(f"a{i}='v'" for i in range(20)) + "/>"
        with pytest.raises(ResourceLimitError) as info:
            list(parse_string(tag, limits=ResourceLimits(max_attributes=10)))
        assert info.value.limit == "max_attributes"

    def test_max_attribute_length(self):
        xml = f"<e a='{'x' * 100}'/>"
        with pytest.raises(ResourceLimitError):
            list(parse_string(xml, limits=ResourceLimits(max_attribute_length=50)))


class TestTextAndEventLimits:
    def test_max_text_length(self):
        xml = f"<a>{'y' * 1000}</a>"
        with pytest.raises(ResourceLimitError) as info:
            list(parse_string(xml, limits=ResourceLimits(max_text_length=100)))
        assert info.value.limit == "max_text_length"

    def test_max_total_events(self):
        xml = "<r>" + "<a/>" * 100 + "</r>"
        with pytest.raises(ResourceLimitError):
            list(parse_string(xml, limits=ResourceLimits(max_total_events=50)))

    def test_limits_not_downgraded_by_repair(self):
        """Recovery policies absorb syntax errors, never limit errors."""
        xml = "<d>" * 100
        with pytest.raises(ResourceLimitError):
            list(
                parse_string(
                    xml,
                    policy=RecoveryPolicy.REPAIR,
                    limits=ResourceLimits(max_depth=10),
                )
            )


class TestMachineCandidateLimits:
    def test_twigm_candidate_buffer_capped(self):
        """//a[z]//b over many b's and no z buffers every b as a candidate;
        the cap must trip before the buffer grows unbounded."""
        xml = "<a>" + "<b/>" * 200 + "</a>"
        stream = XPathStream(
            "//a[z]//b", limits=ResourceLimits(max_buffered_candidates=50)
        )
        with pytest.raises(ResourceLimitError) as info:
            stream.evaluate(xml)
        assert info.value.limit == "max_buffered_candidates"

    def test_twigm_confirmed_results_not_capped(self):
        """Emitted (confirmed) matches leave the buffer: the same cap that
        kills the hostile query admits the friendly one."""
        xml = "<a><z/>" + "<b/>" * 200 + "</a>"
        stream = XPathStream(
            "//a[z]//b", limits=ResourceLimits(max_buffered_candidates=300)
        )
        assert len(stream.evaluate(xml)) == 200

    def test_branchm_candidate_cap(self):
        xml = "<a>" + "<b><c/></b>" * 100 + "</a>"
        stream = XPathStream(
            "/a[z]/b/c",
            engine="branchm",
            limits=ResourceLimits(max_buffered_candidates=20),
        )
        with pytest.raises(ResourceLimitError):
            stream.evaluate(xml)

    def test_machine_depth_limit(self):
        xml = "<d>" * 30 + "</d>" * 30
        stream = XPathStream("//d", limits=ResourceLimits(max_depth=10))
        with pytest.raises(ResourceLimitError):
            stream.evaluate(xml)


class TestExpatLimits:
    """The strict tokenizer's Expat path enforces the limits in its
    callbacks (the Python scanner words the error)."""

    def _feed(self, text, **limits):
        tokenizer = XmlTokenizer(limits=ResourceLimits(**limits))
        with pytest.raises(ResourceLimitError) as info:
            tokenizer.feed_into(text, CountingHandler())
        return info.value.limit

    def test_expat_depth_limit(self):
        assert self._feed("<d>" * 10, max_depth=5) == "max_depth"

    def test_expat_attribute_limit(self):
        tag = "<e " + " ".join(f"a{i}='v'" for i in range(20)) + "/>"
        assert self._feed(tag, max_attributes=10) == "max_attributes"

    def test_expat_text_limit(self):
        text = f"<a>{'x' * 100}</a>"
        assert self._feed(text, max_text_length=10) == "max_text_length"

    def test_expat_event_limit(self):
        doc = "<r>" + "<a/>" * 50 + "</r>"
        assert self._feed(doc, max_total_events=10) == "max_total_events"
