"""Property-based tests for the XML tokenizer (Hypothesis).

Three classes of property:

* **robustness** — arbitrary junk input either parses or raises
  :class:`XmlSyntaxError`; nothing else ever escapes;
* **chunking invariance** — any split of a document into feed chunks
  yields exactly the same event stream as parsing it whole;
* **agreement** — the strict tokenizer (Expat) and the Python scanner
  agree on every generated document.
"""

from hypothesis import example, given, settings, strategies as st

from repro.bench.hotpath import reference_events
from repro.errors import XmlSyntaxError
from repro.stream.tokenizer import parse_chunks, parse_string


# -- generated well-formed documents ----------------------------------------

_TEXT_ALPHABET = st.sampled_from(list("abz019 \t\n&<>'\"é¿"))


@st.composite
def xml_documents(draw, depth=0):
    tag = draw(st.sampled_from(["a", "b", "node", "x-y", "_u"]))
    n_attrs = draw(st.integers(0, 2))
    attrs = ""
    for index in range(n_attrs):
        raw = draw(st.text(_TEXT_ALPHABET, max_size=6))
        value = (
            raw.replace("&", "&amp;").replace("<", "&lt;").replace('"', "&quot;")
        )
        attrs += f' k{index}="{value}"'
    if depth >= 3:
        children = []
    else:
        children = draw(st.lists(xml_documents(depth=depth + 1), max_size=3))
    raw_text = draw(st.text(_TEXT_ALPHABET, max_size=8))
    text = raw_text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    if not children and draw(st.booleans()):
        return f"<{tag}{attrs}/>"
    return f"<{tag}{attrs}>{text}{''.join(children)}</{tag}>"


@settings(max_examples=200, deadline=None)
@given(xml=xml_documents(), chunk_size=st.integers(1, 20))
def test_chunked_parsing_equals_whole(xml, chunk_size):
    whole = list(parse_string(xml, skip_whitespace=False))
    chunks = [xml[i:i + chunk_size] for i in range(0, len(xml), chunk_size)]
    assert list(parse_chunks(chunks, skip_whitespace=False)) == whole


@settings(max_examples=200, deadline=None)
@given(xml=xml_documents())
def test_expat_adapter_agrees(xml):
    expat = list(parse_string(xml, skip_whitespace=False))
    assert expat == reference_events(xml, skip_whitespace=False)


# -- robustness on junk -------------------------------------------------------

_JUNK_ALPHABET = st.sampled_from(list("<>/=\"'&;! abc-?[]"))


@settings(max_examples=400, deadline=None)
@given(junk=st.text(_JUNK_ALPHABET, max_size=40))
@example(junk="<a><b></a></b>")
@example(junk="<a b=>")
@example(junk="<!DOCTYPE")
@example(junk="<![CDATA[x")
@example(junk="&&&&")
@example(junk="<a/><a/>")
def test_junk_never_crashes(junk):
    """Arbitrary input parses or raises XmlSyntaxError — never anything else."""
    try:
        list(parse_string(junk))
    except XmlSyntaxError:
        pass


@settings(max_examples=200, deadline=None)
@given(junk=st.text(_JUNK_ALPHABET, max_size=30), chunk_size=st.integers(1, 5))
def test_junk_never_crashes_chunked(junk, chunk_size):
    chunks = [junk[i:i + chunk_size] for i in range(0, len(junk), chunk_size)]
    try:
        list(parse_chunks(chunks))
    except XmlSyntaxError:
        pass


@settings(max_examples=100, deadline=None)
@given(xml=xml_documents(), cut=st.integers(0, 100))
def test_truncated_documents_fail_cleanly(xml, cut):
    """A prefix of a document either parses (if it happens to be complete)
    or raises XmlSyntaxError at close — no hangs, no other errors."""
    prefix = xml[: min(cut, len(xml))]
    try:
        list(parse_string(prefix))
    except XmlSyntaxError:
        pass
