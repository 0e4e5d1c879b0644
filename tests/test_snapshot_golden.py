"""Durable-state compatibility: checked-in mid-document snapshots.

The ``compiled_*`` captures under ``tests/data/`` were written by the
release that still ran generated-dispatch BranchM/TwigM machines under
``compiled=True``.  Their machine state is the interpreted engines'
format, so they must keep restoring onto today's engines and finish
with exactly the ids of an uninterrupted run over the same document.
``pathm_stream_snapshot.json`` was written by the release that ran
predicate-free ``XPathStream`` queries on PathM unless ``compiled=True``
was passed: it names PathM, so it resumes on PathM, and records the ids
an uninterrupted run produced (``expected``).

The ``multiq_*`` captures and ``compiled_multiq_live_snapshot.json``
were written by the release that ran one lazy-DFA unit per compiled
path query: a plain-mode and an earliest-mode dispatcher, and a
``compiled=True`` dispatcher in which a path query was added mid-stream
(its DFA unit had fallen back to PathM) and another was removed.  Each
records the live add/remove schedule (``steps``) and the ids that run
produced (``expected``).

``tokenizer_snapshot.json``, the ``session_*_checkpoint.json`` blobs
(one serve session of each kind: ``single``, ``multi`` and ``transform``)
and ``rewrite_snapshot.json`` were written by the release in which every
face still built, fed and restored its own tokenizer.  Each is cut
inside a tag and records its character offset (``cut``); the session and
rewrite captures also record what an uninterrupted run produced
(``expected``).  A capture taken today at the same cut must equal the
recorded one key for key, and each must resume to the recorded result.
Three differences are stated.  Per sink (:data:`BOUNDED_SEEN`): those
releases kept every id ever emitted in a sink's ``seen``; sinks now keep
ids only while their machine's root match is open, and count what they
emitted in ``emitted``.  Captures now carry counters those releases did
not write: metrics counters, and an event-fed dispatcher's open-label
counts (:func:`_without_counters`).  And path queries
then ran on PathM units of dispatchers that recorded a ``compiled``
flag; they now run on the shared lazy DFA, and the flag is gone from
dispatcher and stream captures alike (:func:`_stated`).

Every format is read through one strict codec (``repro.checkpoint``):
each golden envelope, mutated every way a blob can be malformed, must
raise ``CheckpointError`` and nothing else, and leaving out any of its
optional keys must still resume to the recorded result.
"""

import json
from pathlib import Path

import pytest

from repro.core.processor import XPathStream
from repro.errors import CheckpointError
from repro.multiq import MultiQueryEngine
from repro.serve.session import ServeConfig, Session
from repro.stream.tokenizer import XmlTokenizer
from repro.stream.writer import IncrementalXmlWriter
from repro.transform.extract import SubstreamExtractor
from repro.transform.rewrite import RewriteEngine, RewriteRule

DATA = Path(__file__).resolve().parent / "data"
DOC = (DATA / "golden_xmark.xml").read_text()


def _load(name: str) -> dict:
    return json.loads((DATA / name).read_text())


@pytest.mark.parametrize("engine", ["branchm", "twigm"])
def test_compiled_stream_snapshot_restores(engine):
    golden = _load(f"compiled_{engine}_snapshot.json")
    snapshot = golden["snapshot"]
    assert snapshot["compiled"] is True
    assert snapshot["engine"] == engine
    resumed = XPathStream.restore(snapshot)
    assert resumed.engine_name == engine
    resumed.feed_text_push(DOC[golden["cut"]:])
    expected = XPathStream(golden["query"]).evaluate(DOC)
    assert expected
    assert resumed.close() == expected


def test_pathm_stream_snapshot_resumes_on_pathm():
    golden = _load("pathm_stream_snapshot.json")
    snapshot, cut = golden["snapshot"], golden["cut"]
    assert snapshot["engine"] == "pathm"
    assert snapshot["compiled"] is False
    resumed = XPathStream.restore(snapshot)
    assert resumed.engine_name == "pathm"
    resumed.feed_text(DOC[cut:])
    assert resumed.close() == golden["expected"]
    assert XPathStream(golden["query"]).evaluate(DOC) == golden["expected"]
    # Taken today on PathM at the same cut, the capture differs only in
    # the stated flag.
    live = XPathStream(golden["query"], engine="pathm")
    live.feed_text(DOC[:cut])
    assert "compiled" not in live.snapshot()
    assert _stated(live.snapshot()) == _stated(snapshot)


def test_compiled_multiq_snapshot_restores():
    golden = _load("compiled_multiq_snapshot.json")
    snapshot = golden["snapshot"]
    assert snapshot["compiled"] is True
    resumed = MultiQueryEngine.restore(snapshot)
    resumed.feed_text_push(DOC[golden["cut"]:])
    expected = MultiQueryEngine(golden["queries"]).evaluate(DOC)
    assert all(expected.values())
    assert resumed.close() == expected


def _replay(golden: dict) -> dict:
    """Re-run a capture's schedule uninterrupted: feed, add and remove at
    the recorded offsets, then finish the document."""
    engine = MultiQueryEngine()
    for name, query in golden["queries"].items():
        engine.add_query(name, query, emission=golden["emission"])
    position = 0
    for step in golden["steps"]:
        engine.feed_text(DOC[position:step["at"]])
        position = step["at"]
        for name, query in step.get("add", {}).items():
            engine.add_query(name, query, emission=golden["emission"])
        for name in step.get("remove", []):
            engine.remove_query(name)
    engine.feed_text(DOC[position:])
    return engine.close()


@pytest.mark.parametrize("name, compiled", [
    ("multiq_plain_snapshot.json", False),
    ("multiq_earliest_snapshot.json", False),
    ("compiled_multiq_live_snapshot.json", True),
])
def test_multiq_snapshot_restores(name, compiled):
    golden = _load(name)
    snapshot = golden["snapshot"]
    assert snapshot["compiled"] is compiled
    assert {q["emission"] for q in snapshot["queries"]} == {golden["emission"]}
    resumed = MultiQueryEngine.restore(snapshot)
    resumed.feed_text(DOC[golden["cut"]:])
    finished = resumed.close()
    assert all(finished.values())
    assert finished == golden["expected"]
    assert finished == _replay(golden)


def _tokenize(tokenizer: XmlTokenizer, text: str) -> list:
    return list(tokenizer.feed(text)) + tokenizer.close()


def test_tokenizer_snapshot_restores():
    golden = _load("tokenizer_snapshot.json")
    cut = golden["cut"]
    assert DOC[:cut].endswith('<item id="29')
    live = XmlTokenizer()
    assert len(list(live.feed(DOC[:cut]))) == golden["events_before"]
    assert live.snapshot() == golden["snapshot"]
    resumed = XmlTokenizer.restore(golden["snapshot"])
    full = _tokenize(XmlTokenizer(), DOC)
    assert _tokenize(resumed, DOC[cut:]) == full[golden["events_before"]:]


#: Per golden: every result sink in the capture (its key path) and the
#: ``seen`` a capture taken today at the same cut holds.  Path and eager
#: units record no ids at all; a non-eager unit records what its root
#: pops released inside the root match still open, and at these cuts
#: none has released anything since its last root match closed.
BOUNDED_SEEN = {
    "session_single_checkpoint.json": {
        ("blob", "engine", "sink"): [],  # //open_auction[...]//reserve
    },
    "session_multi_checkpoint.json": {
        ("blob", "engine", "units", 0, "sinks", "reserve"): [],
        ("blob", "engine", "units", 1, "sinks", "names"): [],  # path
        ("blob", "engine", "units", 2, "sinks", "increase"): [],
    },
    "session_transform_checkpoint.json": {
        ("blob", "engine", "base", "engine", "units", 0, "sinks", "auction"): [],
        ("blob", "engine", "base", "engine", "units", 1, "sinks", "names"): [],
    },
    "rewrite_snapshot.json": {
        ("snapshot", "base", "engine", "units", 0, "sinks", "rule0"): [],
        ("snapshot", "base", "engine", "units", 1, "sinks", "rule1"): [],
        ("snapshot", "base", "engine", "units", 2, "sinks", "rule2"): [],
    },
}


def _without_counters(capture):
    """``capture`` without the counters added since the goldens were
    recorded: a machine state's ``pushes`` and ``peak`` (states with
    ``stacks`` or ``slots``), a multiq unit entry's ``events`` and an
    event-fed dispatcher's ``open_labels``."""
    if isinstance(capture, list):
        return [_without_counters(item) for item in capture]
    if not isinstance(capture, dict):
        return capture
    if "stacks" in capture or "slots" in capture:
        dropped = ("pushes", "peak")
    elif {"queries", "machine", "sinks"} <= capture.keys():
        dropped = ("events",)
    elif {"units", "queries", "tokenizer"} <= capture.keys():
        dropped = ("open_labels",)
    else:
        dropped = ()
    return {key: _without_counters(value) for key, value in capture.items()
            if key not in dropped}


def _stated(capture):
    """``capture`` without what path queries changed: a multiq
    envelope's ``compiled`` flag and its count of deliveries (the DFA is
    routed on its alphabet, not gated on its root label), a stream
    envelope's ``compiled`` flag, and a path unit's ``engine`` and
    ``machine`` (PathM state in the goldens, lazy-DFA state today; its
    sinks still compare)."""
    if isinstance(capture, list):
        return [_stated(item) for item in capture]
    if not isinstance(capture, dict):
        return capture
    if {"units", "queries", "tokenizer"} <= capture.keys():
        dropped = ("compiled",)
        capture = {**capture, "stats": {key: value for key, value
                                        in capture["stats"].items()
                                        if key != "dispatched"}}
    elif {"query", "engine", "machine", "tokenizer"} <= capture.keys():
        dropped = ("compiled",)
    elif capture.get("engine") in ("pathm", "dfa") and "machine" in capture:
        dropped = ("engine", "machine")
    else:
        dropped = ()
    return {key: _stated(value) for key, value in capture.items()
            if key not in dropped}


def _bounded(name: str) -> dict:
    """The golden ``name`` as a capture taken today at its cut.

    Each sink's recorded ``seen`` held every id emitted so far, so its
    length is the ``emitted`` count; ``seen`` itself is the stated one.
    """
    golden = _load(name)
    for path, seen in BOUNDED_SEEN[name].items():
        sink = _at(golden, path)
        assert set(sink) == {"seen"}, f"{name}: {path} is not a recorded sink"
        sink["emitted"] = len(sink["seen"])
        sink["seen"] = seen
    return golden


SESSION_CHUNK = 1000


def _feed_session(session: Session, start: int, stop: int) -> None:
    offset = start
    while offset < stop:
        text = DOC[offset:min(offset + SESSION_CHUNK, stop)]
        session.feed(offset, text)
        offset += len(text)


@pytest.mark.parametrize("kind", ["single", "multi", "transform"])
def test_session_checkpoint_resumes(kind):
    name = f"session_{kind}_checkpoint.json"
    golden = _load(name)
    blob, cut, expected = golden["blob"], golden["cut"], golden["expected"]
    assert blob["kind"] == kind
    assert blob["input_offset"] == cut
    queries = blob["queries"]

    results: list = []
    live = Session.open({"queries": queries}, ServeConfig(),
                        lambda *r: results.append(list(r)), token="golden")
    _feed_session(live, 0, cut)
    bounded = _bounded(name)["blob"]
    assert _stated(_without_counters(live.checkpoint())) == _stated(bounded)
    _feed_session(live, cut, len(DOC))
    live.finish()
    assert results == expected

    resumed_results: list = []
    resumed = Session.resume(blob, ServeConfig(),
                             lambda *r: resumed_results.append(list(r)),
                             last_result_seq=blob["result_seq"])
    assert resumed.pending_replay == []
    _feed_session(resumed, cut, len(DOC))
    done = resumed.finish()
    sent = [[name, node_id, seq, *fragment]
            for seq, name, node_id, *fragment in blob["result_log"]]
    assert sent + resumed_results == expected
    assert done["seq"] == len(expected)


def test_rewrite_snapshot_restores():
    golden = _load("rewrite_snapshot.json")
    snapshot, cut = golden["snapshot"], golden["cut"]
    assert snapshot["queue"], "the cut must leave a pending rewrite region"
    rules = [RewriteRule.from_spec(spec) for spec in snapshot["rules"]]
    live = RewriteEngine(rules)
    live.feed_text(DOC[:cut])
    assert (_stated(_without_counters(live.snapshot()))
            == _stated(_bounded("rewrite_snapshot.json")["snapshot"]))
    resumed = RewriteEngine.restore(snapshot)
    resumed.feed_text(DOC[cut:])
    assert resumed.close() == golden["expected"]
    assert RewriteEngine(rules).evaluate(DOC) == golden["expected"]


#: A non-eager query (predicate above the return node): its sink holds
#: released ids while an ``open_auction`` root match is open.
LEGACY_QUERY = "//open_auction[bidder]//*"


def test_legacy_seen_lists_resume_and_drain():
    """A capture from a release whose sinks kept every emitted id resumes
    to the uninterrupted result; the long list goes once the root match
    open at the cut closes."""
    starts = [i for i in range(len(DOC)) if DOC.startswith("<open_auction ", i)]
    cut, epoch_end = starts[3] + 40, starts[4]  # inside the 4th root match
    expected = XPathStream(LEGACY_QUERY).evaluate(DOC)

    before: list = []
    live = XPathStream(LEGACY_QUERY, on_match=before.append)
    live.feed_text(DOC[:cut])
    blob = live.snapshot()
    assert blob["sink"] == {"seen": [], "emitted": len(before)}
    assert len(before) > 20
    blob["sink"] = {"seen": sorted(before)}  # what those releases wrote

    after: list = []
    resumed = XPathStream.restore(blob, on_match=after.append)
    assert resumed.snapshot()["sink"] == {"seen": sorted(before),
                                          "emitted": len(before)}
    resumed.feed_text(DOC[cut:epoch_end])
    assert resumed.snapshot()["sink"] == {"seen": [],
                                          "emitted": len(before) + len(after)}
    resumed.feed_text(DOC[epoch_end:])
    resumed.close()
    assert before + after == expected

    fired: dict = {"q": [], "p": []}
    engine = MultiQueryEngine({"q": LEGACY_QUERY, "p": "//open_auction/bidder"},
                              on_match=lambda name, node_id: fired[name].append(node_id))
    engine.feed_text(DOC[:cut])
    snapshot = engine.snapshot()
    for unit in snapshot["units"]:
        for name, sink in unit["sinks"].items():
            assert sink == {"seen": [], "emitted": len(fired[name])}
            unit["sinks"][name] = {"seen": sorted(fired[name])}
    hits: list = []
    resumed = MultiQueryEngine.restore(snapshot,
                                       on_match=lambda *r: hits.append(r))
    seen = {name: sink["seen"] for unit in resumed.snapshot()["units"]
            for name, sink in unit["sinks"].items()}
    assert seen["p"] == []  # path unit: dropped at restore
    assert len(seen["q"]) > 20  # root match open: kept until it closes
    resumed.feed_text(DOC[cut:epoch_end])
    assert all(sink["seen"] == [] for unit in resumed.snapshot()["units"]
               for sink in unit["sinks"].values())
    resumed.feed_text(DOC[epoch_end:])
    resumed.close()
    assert [node_id for name, node_id in hits if name == "q"] == after
    assert resumed.emitted_counts()["q"] == len(expected)


# -- hostile blobs: every format is read by one strict codec -------------

def _resume_golden(name: str, golden: dict):
    """Resume ``golden`` from its cut; return (result, recorded result)."""
    cut = golden["cut"]
    if "query" in golden:
        resumed = XPathStream.restore(golden["snapshot"])
        resumed.feed_text(DOC[cut:])
        return resumed.close(), XPathStream(golden["query"]).evaluate(DOC)
    if name == "compiled_multiq_snapshot.json":
        resumed = MultiQueryEngine.restore(golden["snapshot"])
        resumed.feed_text(DOC[cut:])
        return resumed.close(), MultiQueryEngine(golden["queries"]).evaluate(DOC)
    if name.startswith(("multiq_", "compiled_multiq_")):
        resumed = MultiQueryEngine.restore(golden["snapshot"])
        resumed.feed_text(DOC[cut:])
        return resumed.close(), golden["expected"]
    if name == "tokenizer_snapshot.json":
        resumed = XmlTokenizer.restore(golden["snapshot"])
        full = _tokenize(XmlTokenizer(), DOC)
        return _tokenize(resumed, DOC[cut:]), full[golden["events_before"]:]
    if name.startswith("session_"):
        blob = golden["blob"]
        results: list = []
        resumed = Session.resume(blob, ServeConfig(),
                                 lambda *r: results.append(list(r)),
                                 last_result_seq=blob["result_seq"])
        _feed_session(resumed, cut, len(DOC))
        resumed.finish()
        sent = [[query, node_id, seq, *fragment]
                for seq, query, node_id, *fragment in blob["result_log"]]
        return sent + results, golden["expected"]
    resumed = RewriteEngine.restore(golden["snapshot"])
    resumed.feed_text(DOC[cut:])
    return resumed.close(), golden["expected"]


def _resume_session(blob):
    return Session.resume(blob, ServeConfig(), lambda *r: None)


#: (golden file, path to the envelope inside it, reader, optional keys,
#: the plain dicts the reader checks itself as (path, optional keys)).
FORMATS = [
    *[(name, ("snapshot",), XPathStream.restore,
       {"compiled", "emission"}, [(("sink",), {"results"})])
      for name in ("compiled_branchm_snapshot.json", "compiled_twigm_snapshot.json",
                   "pathm_stream_snapshot.json")],
    *[(name, ("snapshot",), MultiQueryEngine.restore, {"compiled", "stats"},
       [(("queries", 0), {"tracked", "emission"}), (("units", 0), {"virgin"}),
        (("stats",), set())])
      for name in ("compiled_multiq_snapshot.json", "multiq_plain_snapshot.json",
                   "multiq_earliest_snapshot.json",
                   "compiled_multiq_live_snapshot.json")],
    ("tokenizer_snapshot.json", ("snapshot",), XmlTokenizer.restore,
     {"bytes_fed"}, []),
    *[(f"session_{kind}_checkpoint.json", ("blob",), _resume_session, set(), [])
      for kind in ("single", "multi", "transform")],
    ("session_transform_checkpoint.json", ("blob", "engine"),
     SubstreamExtractor.restore, {"emission"},
     [(("records", 0), {"verdict"}), (("base",), {"events_in"})]),
    ("rewrite_snapshot.json", ("snapshot",), RewriteEngine.restore, set(),
     [(("base",), {"events_in"})]),
    ("rewrite_snapshot.json", ("snapshot", "writer"),
     IncrementalXmlWriter.restore, set(), []),
]


def _format_id(entry) -> str:
    return "/".join([entry[0].removesuffix(".json"), *entry[1][1:]])


def _at(value, path):
    for key in path:
        value = value[key]
    return value


def _without(payload: dict, key: str) -> dict:
    return {k: v for k, v in payload.items() if k != key}


def _hostile_variants(envelope: dict, optional: set, entries: list):
    """(label, mutated copy) for every way a blob may be malformed."""
    yield "none", None
    yield "list", []
    yield "version", {**envelope, "version": envelope["version"] + 1}
    if "kind" in envelope:
        yield "kind", {**envelope, "kind": "other"}
    for key in envelope:
        if key != "version" and key not in optional:
            yield f"without {key}", _without(envelope, key)
    yield "unknown key", {**envelope, "bogus": 1}
    if "limits" in envelope:
        yield "limits typo", {**envelope, "limits": {"max_depht": 3}}
    for path, entry_optional in entries:
        entry = _at(envelope, path)
        for label, mutated in (
            [(f"without {key}", _without(entry, key))
             for key in entry if key not in entry_optional]
            + [("unknown key", {**entry, "bogus": 1})]
            + ([("limits typo", {**entry, "limits": {"max_depht": 3}})]
               if "limits" in entry else [])
        ):
            copy = json.loads(json.dumps(envelope))
            *parent, last = path
            _at(copy, parent)[last] = mutated
            yield f"{'.'.join(map(str, path))} {label}", copy


@pytest.mark.parametrize("entry", FORMATS, ids=_format_id)
def test_hostile_blobs_raise_only_checkpoint_error(entry):
    name, path, reader, optional, entries = entry
    envelope = _at(_load(name), path)
    reader(json.loads(json.dumps(envelope)))  # the untouched blob restores
    for label, blob in _hostile_variants(envelope, optional, entries):
        with pytest.raises(CheckpointError):
            reader(blob)
            pytest.fail(f"{_format_id(entry)}: {label} was accepted")


@pytest.mark.parametrize("entry", [e for e in FORMATS if e[3]], ids=_format_id)
def test_optional_keys_may_be_left_out(entry):
    """Captures from releases that did not write a key yet resume to the
    recorded result."""
    name, path, _reader, optional, _entries = entry
    for key in sorted(optional):
        golden = _load(name)
        *parent, last = path
        holder = _at(golden, parent)
        holder[last] = _without(holder[last], key)
        result, recorded = _resume_golden(name, golden)
        assert result == recorded, f"without {key!r}"


#: Per format: a key path whose value is set to a wrong-typed one — the
#: error surfaces inside the restore, past the key checks.
BAD_VALUES = {
    "compiled_branchm_snapshot": (("policy",), "bogus"),
    "compiled_twigm_snapshot": (("engine",), "bogus"),
    "pathm_stream_snapshot": (("machine", "stacks"), 5),
    "compiled_multiq_snapshot": (("units", 0, "queries"), ["nobody"]),
    "multiq_plain_snapshot": (("stats", "events"), None),
    "multiq_earliest_snapshot": (("queries", 0, "query"), None),
    "compiled_multiq_live_snapshot": (("policy",), 7),
    "tokenizer_snapshot": (("policy",), "bogus"),
    "session_single_checkpoint": (("priority",), "x"),
    "session_multi_checkpoint": (("counts",), []),
    "session_transform_checkpoint": (("result_log",), [[]]),
    "session_transform_checkpoint/engine": (("fragment_bytes",), "x"),
    "rewrite_snapshot": (("regions",), [["hole", 1, 99]]),
    "rewrite_snapshot/writer": (("bytes_written",), "x"),
}


@pytest.mark.parametrize("entry", FORMATS, ids=_format_id)
def test_bad_values_raise_only_checkpoint_error(entry):
    name, path, reader, _optional, _entries = entry
    blob = json.loads(json.dumps(_at(_load(name), path)))
    (*parent, last), value = BAD_VALUES[_format_id(entry)]
    _at(blob, parent)[last] = value
    with pytest.raises(CheckpointError):
        reader(blob)


# -- value-shape groups ---------------------------------------------------------

@pytest.mark.parametrize("mode", ["collect", "callback"])
def test_value_shape_capture_restores(mode):
    """``multiq_shapes_snapshot.json`` was written by the release that ran
    one TwigM unit per value-tested query: three ``<`` constants (one
    repeated), two numeric and two string ``=`` constants, and an
    ``//open_auction[bidder/increase > C]/current`` group whose return
    node is not the value node.  It is cut inside an ``<increase>``
    element, once with collecting sinks and once with callbacks; either
    must finish with the ids of an uninterrupted run, per query and in
    order, however today's engine would group the queries."""
    golden = _load("multiq_shapes_snapshot.json")
    snapshot = golden["snapshots"][mode]
    assert DOC[:golden["cut"]].endswith("<increase>")
    expected = MultiQueryEngine(golden["queries"]).evaluate(DOC)
    assert expected == golden["expected"]
    if mode == "collect":
        resumed = MultiQueryEngine.restore(snapshot)
        resumed.feed_text(DOC[golden["cut"]:])
        assert resumed.close() == expected
        return
    fired = {name: list(ids) for name, ids in golden["fired"].items()}
    resumed = MultiQueryEngine.restore(
        snapshot, on_match=lambda name, node_id: fired[name].append(node_id))
    resumed.feed_text(DOC[golden["cut"]:])
    resumed.close()
    assert fired == expected
