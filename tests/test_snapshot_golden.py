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
``dfa_fallen_stream_snapshot.json`` was written by the release whose
lazy DFA swapped to one interpreted PathM per member at its state cap:
its machine says ``fallen`` and holds PathM stacks, so it resumes on
PathM.  It carries its own small document (``document``).

The ``multiq_*`` captures and ``compiled_multiq_live_snapshot.json``
were written by the release that ran one lazy-DFA unit per compiled
path query: a plain-mode and an earliest-mode dispatcher, and a
``compiled=True`` dispatcher in which a path query was added mid-stream
(its DFA unit had fallen back to PathM) and another was removed.  Each
records the live add/remove schedule (``steps``) and the ids that run
produced (``expected``).

``multiq_label_shapes_snapshot.json`` was written by the release that
ran one TwigM unit per ``//X[Y]`` / ``//X[Y]//Z`` query (two equal
queries shared one): eight queries over ``open_auction`` and ``item``
roots, cut inside a ``<bidder>``, once with collecting sinks and once
with callbacks (``snapshots``).  Restore keeps the captured grouping,
so its units stay per query; each must finish with the ids of an
uninterrupted run.

``multiq_return_shapes_snapshot.json`` was written by the release that
kept the return label in a label shape's key: one unit per
``//X[Y]//Z`` / ``//X[Y]/Z`` family with one ``(X, Z)``, ten queries
over ``open_auction`` (return labels ``date``, ``increase``,
``current``, ``bidder`` and ``personref``, one query twice) and
``item`` roots, cut inside the second ``<bidder>`` of an
``open_auction`` whose first bidder left ``date``, ``increase``,
``personref`` and ``bidder`` candidates buffered, once with collecting
sinks and once with callbacks (``snapshots``).  Today those queries key
on ``X`` alone; each captured unit resumes as one such shape unit whose
members share one return label (its root entries' plain candidate
lists are that label's), and must finish with the ids of an
uninterrupted run.

``tokenizer_snapshot.json``, the ``session_*_checkpoint.json`` blobs
(one serve session of each kind: ``single``, ``multi`` and ``transform``)
and ``rewrite_snapshot.json`` were written by the release in which every
face still built, fed and restored its own tokenizer.  Each is cut
inside a tag and records its character offset (``cut``); the session and
rewrite captures also record what an uninterrupted run produced
(``expected``).  A capture taken today at the same cut must equal the
recorded one key for key, and each must resume to the recorded result.
Four differences are stated.  Per sink (:data:`BOUNDED_SEEN`): those
releases kept every id ever emitted in a sink's ``seen``; sinks now keep
ids only while their machine's root match is open, and count what they
emitted in ``emitted``.  Captures now carry counters those releases did
not write: metrics counters, and an event-fed dispatcher's open-label
counts (:func:`_without_counters`).  Path queries then ran on PathM
units of dispatchers that recorded a ``compiled`` flag; they now run on
the shared lazy DFA, and the flag is gone from dispatcher and stream
captures alike.  And ``//X[Y]`` queries then ran on per-query TwigM
units; they now run as one-member label shapes (:func:`_stated`).

Every format is read through one typed schema (``repro.checkpoint``):
every object in a golden is read by a ``Fields`` spec (:func:`_schema`
finds which, by restoring the golden once), so each object mutated every
way a blob can be malformed must raise ``CheckpointError`` and nothing
else, and leaving out any of an envelope's optional keys must still
resume to the recorded result.  The wrong-value sweep puts each of
:data:`SWEEP_VALUES` in place of every node of every golden.

The same spec writes each format: :func:`test_capture_round_trip` takes
fresh captures of every format at four cuts and restores each from JSON,
which must capture again to the same value.  A restored tokenizer must
number past every id its capture holds (:func:`test_next_id_below_a_held_candidate_is_refused`
and the tests after it).
"""

import json
from pathlib import Path

import pytest

from repro.checkpoint import INT, NAT, OBJECT, STR, Fields, ListOf, MapOf, Nullable, OneOf, Tuple
from repro.core.processor import XPathStream
from repro.errors import CheckpointError, ReproError
from repro.multiq import MultiQueryEngine
from repro.serve.session import ServeConfig, Session
from repro.stream.events import events_to_handler
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


def test_fallen_dfa_stream_snapshot_resumes_on_pathm():
    """A ``//a/b`` stream with ``state_cap=1``, cut with an ``<a>`` open
    whose ``<b>`` child arrives after the cut: only the PathM stacks the
    capture holds know that ``<a>`` is open."""
    golden = _load("dfa_fallen_stream_snapshot.json")
    snapshot, cut, doc = golden["snapshot"], golden["cut"], golden["document"]
    assert snapshot["engine"] == "dfa"
    assert snapshot["machine"]["fallen"] is True
    assert doc[cut:].startswith("<b/>")
    resumed = XPathStream.restore(snapshot)
    assert resumed.engine_name == "pathm"
    resumed.feed_text(doc[cut:])
    assert resumed.close() == golden["expected"] == [6]
    for cap in (golden["state_cap"], None):
        assert XPathStream(golden["query"], state_cap=cap).evaluate(doc) == [6]


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
    fallen = [name for unit in snapshot["units"] if unit["machine"].get("fallen")
              for name in unit["queries"]]
    assert fallen == (["late"] if compiled else [])
    for name in fallen:
        # Its DFA unit had swapped to PathM: it resumes on PathM.
        assert resumed.engine_names()[name] == "pathm"
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
    sinks still compare).  A ``//X[Y]`` unit is now a one-member label
    shape: its entry's ``shape`` mark and the member mask in its stack
    entries' ``attr_bits`` (0 in a per-query TwigM) are left out too."""
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
    elif capture.get("shape") and "machine" in capture:
        dropped = ("shape",)
        stacks = [[entry[:4] + [0] for entry in stack]
                  for stack in capture["machine"]["stacks"]]
        capture = {**capture, "machine": {**capture["machine"], "stacks": stacks}}
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

def _restore_golden(name: str, golden: dict, pristine: dict):
    """Restore ``golden``'s capture; return a function that resumes it
    from its cut and returns the result.  What the client knows — the
    document, the cut, the results it holds — comes from ``pristine``."""
    cut = pristine["cut"]
    if "query" in golden:
        resumed = XPathStream.restore(golden["snapshot"])
        return lambda: _finish(resumed, pristine.get("document", DOC)[cut:])
    if "snapshots" in golden:
        resumed = MultiQueryEngine.restore(golden["snapshots"]["collect"])
        return lambda: _finish(resumed, DOC[cut:])
    if name.startswith(("multiq_", "compiled_multiq_")):
        resumed = MultiQueryEngine.restore(golden["snapshot"])
        return lambda: _finish(resumed, DOC[cut:])
    if name == "tokenizer_snapshot.json":
        resumed = XmlTokenizer.restore(golden["snapshot"])
        return lambda: _tokenize(resumed, DOC[cut:])
    if name.startswith("session_"):
        held = pristine["blob"]
        results: list = []
        resumed = Session.resume(golden["blob"], ServeConfig(),
                                 lambda *r: results.append(list(r)),
                                 last_result_seq=held["result_seq"])
        sent = [[query, node_id, seq, *fragment]
                for seq, query, node_id, *fragment in held["result_log"]]

        def finish():
            _feed_session(resumed, cut, len(DOC))
            resumed.finish()
            return sent + results
        return finish
    resumed = RewriteEngine.restore(golden["snapshot"])
    return lambda: _finish(resumed, DOC[cut:])


def _finish(resumed, text: str):
    resumed.feed_text(text)
    return resumed.close()


def _recorded(name: str, golden: dict):
    """What an uninterrupted run over the golden's document produces."""
    if "query" in golden:
        return XPathStream(golden["query"]).evaluate(golden.get("document", DOC))
    if name == "compiled_multiq_snapshot.json":
        return MultiQueryEngine(golden["queries"]).evaluate(DOC)
    if name == "tokenizer_snapshot.json":
        return _tokenize(XmlTokenizer(), DOC)[golden["events_before"]:]
    return golden["expected"]


def _resume_golden(name: str, golden: dict):
    """Resume ``golden`` from its cut; return (result, recorded result)."""
    return _restore_golden(name, golden, golden)(), _recorded(name, golden)


def _resume_session(blob):
    return Session.resume(blob, ServeConfig(), lambda *r: None)


#: (golden file, path to the envelope inside it, reader).
FORMATS = [
    *[(name, ("snapshot",), XPathStream.restore)
      for name in ("compiled_branchm_snapshot.json", "compiled_twigm_snapshot.json",
                   "pathm_stream_snapshot.json", "dfa_fallen_stream_snapshot.json")],
    *[(name, ("snapshot",), MultiQueryEngine.restore)
      for name in ("compiled_multiq_snapshot.json", "multiq_plain_snapshot.json",
                   "multiq_earliest_snapshot.json", "compiled_multiq_live_snapshot.json")],
    *[(name, ("snapshots", "collect"), MultiQueryEngine.restore)
      for name in ("multiq_label_shapes_snapshot.json",
                   "multiq_return_shapes_snapshot.json")],
    ("tokenizer_snapshot.json", ("snapshot",), XmlTokenizer.restore),
    *[(f"session_{kind}_checkpoint.json", ("blob",), _resume_session)
      for kind in ("single", "multi", "transform")],
    ("session_transform_checkpoint.json", ("blob", "engine"), SubstreamExtractor.restore),
    ("rewrite_snapshot.json", ("snapshot",), RewriteEngine.restore),
    ("rewrite_snapshot.json", ("snapshot", "writer"), IncrementalXmlWriter.restore),
]


def _format_id(entry) -> str:
    return "/".join([entry[0].removesuffix(".json"), *entry[1][1:]])


def _at(value, path):
    for key in path:
        value = value[key]
    return value


def _without(payload: dict, key: str) -> dict:
    return {k: v for k, v in payload.items() if k != key}


def _schema(entry) -> "tuple[dict, dict]":
    """For every node of the golden envelope, by key path: the reader its
    parent's spec declares for it, and for every object, the
    :class:`Fields` spec that reads it — the specs a restore of the
    golden calls, followed down their fields."""
    name, path, reader = entry
    envelope = _at(_load(name), path)
    specs: dict = {}
    call = Fields.__call__

    def recording(spec, payload, where, envelope=()):
        specs.setdefault(id(payload), spec)
        return call(spec, payload, where, envelope)

    Fields.__call__ = recording
    try:
        reader(envelope)
    finally:
        Fields.__call__ = call
    readers: dict = {}
    objects: dict = {}

    def walk(value, reader, at):
        readers[at] = reader
        if value is None:
            return
        inner = reader.inner if isinstance(reader, Nullable) else reader
        if inner is None or inner is OBJECT:
            inner = specs.get(id(value))
        while isinstance(inner, OneOf):
            inner = next(choice for choice in inner.choices if _accepts(choice, value))
        if isinstance(inner, Fields):
            objects[at] = inner
            # ``read_envelope`` checks the version and kind itself.
            fields = {"version": NAT, "kind": STR, **inner.required,
                      **{key: read for key, (read, _default) in inner.optional.items()}}
            for key, child in value.items():
                walk(child, fields.get(key), at + (key,))
        elif isinstance(inner, (ListOf, Tuple)):
            items = inner.items if isinstance(inner, Tuple) else [inner.item] * len(value)
            for index, (item, child) in enumerate(zip(items, value)):
                walk(child, item, at + (index,))
        elif isinstance(inner, MapOf):
            for key, child in value.items():
                walk(child, inner.item, at + (key,))

    walk(envelope, OBJECT, ())
    return readers, objects


def _accepts(reader, value) -> bool:
    try:
        reader(value, "value")
    except CheckpointError:
        return False
    return True


def _hostile_variants(envelope: dict, entries: dict):
    """(label, mutated copy) for every way a blob may be malformed."""
    yield "none", None
    yield "list", []
    yield "version", {**envelope, "version": envelope["version"] + 1}
    yield "version true", {**envelope, "version": True}
    if "kind" in envelope:
        yield "kind", {**envelope, "kind": "other"}
    for path, spec in entries.items():
        entry = _at(envelope, path)
        for label, mutated in (
            [(f"without {key}", _without(entry, key)) for key in spec.required]
            + [("unknown key", {**entry, "bogus": 1})]
            + ([("limits typo", {**entry, "limits": {"max_depht": 3}})]
               if "limits" in entry else [])
        ):
            if not path:
                yield label, mutated
                continue
            copy = json.loads(json.dumps(envelope))
            *parent, last = path
            _at(copy, parent)[last] = mutated
            yield f"{'.'.join(map(str, path))} {label}", copy


@pytest.mark.parametrize("entry", FORMATS, ids=_format_id)
def test_every_object_is_read_by_a_typed_spec(entry):
    """Each object in a golden is read by a :class:`Fields` spec, and
    every other node by a typed reader (no value is read by hand)."""
    readers, objects = _schema(entry)
    envelope = _at(_load(entry[0]), entry[1])
    assert () in objects
    untyped = [at for at, reader in readers.items()
               if (reader.inner if isinstance(reader, Nullable) else reader) in (None, OBJECT)
               and at not in objects and _at(envelope, at) is not None]
    assert not untyped, f"{_format_id(entry)}: nodes read by hand: {untyped[:5]}"


@pytest.mark.parametrize("entry", FORMATS, ids=_format_id)
def test_hostile_blobs_raise_only_checkpoint_error(entry):
    name, path, reader = entry
    envelope = _at(_load(name), path)
    reader(json.loads(json.dumps(envelope)))  # the untouched blob restores
    for label, blob in _hostile_variants(envelope, _schema(entry)[1]):
        with pytest.raises(CheckpointError):
            reader(blob)
            pytest.fail(f"{_format_id(entry)}: {label} was accepted")


@pytest.mark.parametrize("entry", FORMATS, ids=_format_id)
def test_optional_keys_may_be_left_out(entry):
    """Captures from releases that did not write a key yet resume to the
    recorded result."""
    name, path, _reader = entry
    optional = _schema(entry)[1][()].optional
    for key in sorted(optional.keys() & _at(_load(name), path).keys()):
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
    "dfa_fallen_stream_snapshot": (("machine", "fallback"), 5),
    "compiled_multiq_snapshot": (("units", 0, "queries"), ["nobody"]),
    "multiq_plain_snapshot": (("stats", "events"), None),
    "multiq_earliest_snapshot": (("queries", 0, "query"), None),
    "compiled_multiq_live_snapshot": (("policy",), 7),
    "multiq_label_shapes_snapshot/collect": (("units", 0, "machine", "stacks"), [[]]),
    "multiq_return_shapes_snapshot/collect": (("units", 0, "machine", "stacks", 0),
                                              [[3, 3, {"date": "x"}, None, 1]]),
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
    name, path, reader = entry
    blob = json.loads(json.dumps(_at(_load(name), path)))
    (*parent, last), value = BAD_VALUES[_format_id(entry)]
    _at(blob, parent)[last] = value
    with pytest.raises(CheckpointError):
        reader(blob)


# -- the wrong-value sweep ----------------------------------------------------

#: What the sweep puts in place of each node of a golden envelope.
SWEEP_VALUES = ("s", 7, -1, 2.5, True, None, [], ["x"], {})

#: The envelopes the sweep mutates: every format but the two nested in
#: another one's golden (their nodes are swept inside it).
SWEPT = [entry for entry in FORMATS if entry[1] in (("snapshot",), ("blob",),
                                                    ("snapshots", "collect"))]


def _same_type(a, b) -> bool:
    """JSON type equality: bool is not int, float is not int, and a
    list's type includes its first element's (an empty list has any)."""
    if type(a) is not type(b):
        return False
    if type(a) is list and a and b:
        return _same_type(a[0], b[0])
    return True


def _nodes(value, at=()):
    """(key path, value) below ``value``: leaves and containers, the
    first 3 entries of each list."""
    children = (value.items() if isinstance(value, dict)
                else enumerate(value[:3]) if isinstance(value, list) else ())
    for key, child in children:
        yield at + (key,), child
        yield from _nodes(child, at + (key,))


def _delivered_ids(name: str, result) -> list:
    if isinstance(result, dict):
        return [node_id for ids in result.values() for node_id in ids]
    if name.startswith("session_"):
        return [entry[1] for entry in result]
    if name == "tokenizer_snapshot.json":
        return [event.node_id for event in result if hasattr(event, "node_id")]
    return result if isinstance(result, list) else []


@pytest.mark.parametrize("entry", SWEPT, ids=_format_id)
def test_wrong_values_raise_checkpoint_error_or_resume(entry):
    """Every node of the golden envelope, replaced by each of
    :data:`SWEEP_VALUES` (skipping the value itself), must (a) raise
    nothing but ``CheckpointError`` at restore; once restored, (b) resume
    raising nothing but ``ReproError``s and (c) deliver only int ids.
    (d) A value of another JSON type than the one it replaces, and (e)
    -1 in place of a non-negative int, must raise ``CheckpointError`` or
    resume to the recorded result — except null in a nullable field and
    -1 in a signed one (:data:`~repro.checkpoint.INT`)."""
    name, path, _reader = entry
    pristine = _load(name)
    recorded = _recorded(name, pristine)
    readers = _schema(entry)[0]
    failures = []
    for at, value in _nodes(_at(pristine, path)):
        reader = readers[at]
        for mutant in SWEEP_VALUES:
            if mutant == value and _same_type(mutant, value):
                continue
            golden = json.loads(json.dumps(pristine))
            *parent, last = path + at
            _at(golden, parent)[last] = json.loads(json.dumps(mutant))
            label = f"{'.'.join(map(str, at))} = {mutant!r}"
            try:
                resume = _restore_golden(name, golden, pristine)
            except CheckpointError:
                continue
            except Exception as exc:  # (a)
                failures.append(f"{label}: restore raised {exc!r}")
                continue
            try:
                result = resume()
            except ReproError:
                result = None
            except Exception as exc:  # (b)
                failures.append(f"{label}: resume raised {exc!r}")
                continue
            ids = _delivered_ids(name, result) if result is not None else []
            if any(type(node_id) is not int for node_id in ids):  # (c)
                failures.append(f"{label}: delivered {ids[:5]}")
            exempt = (mutant is None and isinstance(reader, Nullable)
                      or mutant == -1 and reader is INT)
            retyped = not _same_type(mutant, value)  # (d)
            negated = mutant == -1 and type(value) is int and value >= 0  # (e)
            if (retyped or negated) and not exempt and result != recorded:
                failures.append(f"{label}: resumed to another result")
    assert not failures, f"{len(failures)} mutants: " + "; ".join(failures[:8])


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


@pytest.mark.parametrize("mode", ["collect", "callback"])
def test_label_shape_capture_restores(mode):
    """``multiq_label_shapes_snapshot.json`` (see the module docstring)
    restores with its captured per-query grouping and finishes with the
    ids of an uninterrupted run, per query and in order."""
    golden = _load("multiq_label_shapes_snapshot.json")
    snapshot = golden["snapshots"][mode]
    assert DOC[:golden["cut"]].endswith("<bidder>")
    assert [unit["queries"] for unit in snapshot["units"]] == [
        ["reserve", "reserve_twin"], ["bidder"], ["seller_date"], ["bidder_date"],
        ["annotation_date"], ["mailbox"], ["payment_name"]]
    expected = MultiQueryEngine(golden["queries"]).evaluate(DOC)
    assert expected == golden["expected"]
    fired = {name: list(ids) for name, ids in golden["fired"].items()}
    resumed = MultiQueryEngine.restore(
        snapshot,
        on_match=(lambda name, node_id: fired[name].append(node_id))
        if mode == "callback" else None)
    assert resumed.unit_count() == 7
    assert not any(unit.get("shape") for unit in resumed.snapshot()["units"])
    resumed.feed_text(DOC[golden["cut"]:])
    finished = resumed.close()
    assert (fired if mode == "callback" else finished) == expected


@pytest.mark.parametrize("mode", ["collect", "callback"])
def test_return_shape_capture_restores(mode):
    """``multiq_return_shapes_snapshot.json`` (see the module docstring)
    resumes into return-label shape units and finishes with the ids of an
    uninterrupted run, per query and in order."""
    golden = _load("multiq_return_shapes_snapshot.json")
    snapshot = golden["snapshots"][mode]
    assert DOC[:golden["cut"]].endswith("<bidder>")
    captured = [unit["queries"] for unit in snapshot["units"]]
    assert captured == [
        ["bidder_date", "reserve_date", "bidder_date_twin"],
        ["bidder_increase", "seller_increase"], ["bidder_current"], ["bidder_bidder"],
        ["author_personref"], ["mailbox_from"], ["payment_name"]]
    buffered = {tuple(unit["queries"]): unit["machine"]["stacks"][0][0][2]
                for unit in snapshot["units"][:2]}
    assert all(buffered.values())  # date and increase candidates, both held
    expected = MultiQueryEngine(golden["queries"]).evaluate(DOC)
    assert expected == golden["expected"]
    fired = {name: list(ids) for name, ids in golden["fired"].items()}
    resumed = MultiQueryEngine.restore(
        snapshot,
        on_match=(lambda name, node_id: fired[name].append(node_id))
        if mode == "callback" else None)
    units = [resumed.registration(names[0]).unit for names in captured]
    assert all(unit.engine.tails for unit in units)
    assert [unit.names for unit in units] == captured
    restored = resumed.snapshot()["units"]
    assert [unit["machine"]["stacks"][0][0][2] for unit in restored[:2]] == [
        {label: ids} for label, ids in zip(("date", "increase"), buffered.values())]
    resumed.feed_text(DOC[golden["cut"]:])
    finished = resumed.close()
    assert (fired if mode == "callback" else finished) == expected
    # Today the ten queries run on five units, one per root label, branch
    # axis and return axis: six ``//open_auction[Y]//Z`` queries share one.
    assert MultiQueryEngine(golden["queries"]).unit_count() == 5


# -- capture round trips: one table writes and reads each format ----------------

def _ignore(*_result) -> None:
    pass


def _fed(face, cut: int):
    face.feed_text(DOC[:cut])
    return face


def _session(queries: dict, cut: int) -> Session:
    session = Session.open({"queries": queries}, ServeConfig(), _ignore, token="trip")
    _feed_session(session, 0, cut)
    return session


def _tokenized(cut: int) -> XmlTokenizer:
    tokenizer = XmlTokenizer()
    tokenizer.feed(DOC[:cut])
    return tokenizer


def _written(cut: int) -> IncrementalXmlWriter:
    writer = IncrementalXmlWriter(chunk_size=64)
    events_to_handler(XmlTokenizer().feed(DOC[:cut]), writer)
    return writer


TWIG = "//open_auction[bidder/personref]//reserve"
#: Per format: the face fed to a cut, and how a capture restores.
ROUND_TRIPS = {
    "stream/twigm": (lambda cut: _fed(XPathStream(TWIG), cut), XPathStream.restore),
    "stream/twigm-callback": (lambda cut: _fed(XPathStream(TWIG, on_match=_ignore), cut),
                              lambda blob: XPathStream.restore(blob, on_match=_ignore)),
    "stream/dfa": (lambda cut: _fed(XPathStream("//regions//item/name"), cut),
                   XPathStream.restore),
    "stream/branchm": (
        lambda cut: _fed(XPathStream("/site/open_auctions/open_auction/bidder[increase]/date"),
                         cut),
        XPathStream.restore),
    "multiq": (lambda cut: _fed(MultiQueryEngine({
        **_load("multiq_plain_snapshot.json")["queries"],
        **_load("multiq_return_shapes_snapshot.json")["queries"]}), cut),
        MultiQueryEngine.restore),
    "multiq-callback": (
        lambda cut: _fed(MultiQueryEngine(_load("multiq_return_shapes_snapshot.json")["queries"],
                                          on_match=_ignore), cut),
        lambda blob: MultiQueryEngine.restore(blob, on_match=_ignore)),
    "tokenizer": (_tokenized, XmlTokenizer.restore),
    "writer": (_written, IncrementalXmlWriter.restore),
    "extractor": (lambda cut: _fed(SubstreamExtractor(
        {"auction": "//open_auction[bidder/personref]", "names": "//item/name"}), cut),
        SubstreamExtractor.restore),
    "rewrite": (lambda cut: _fed(RewriteEngine([
        RewriteRule.from_spec(spec) for spec in _load("rewrite_snapshot.json")["snapshot"]["rules"]
    ]), cut), RewriteEngine.restore),
    **{f"session/{kind}": (
        lambda cut, kind=kind: _session(_load(f"session_{kind}_checkpoint.json")["blob"]["queries"],
                                        cut),
        lambda blob: Session.resume(blob, ServeConfig(), _ignore))
       for kind in ("single", "multi", "transform")},
}


def _capture(face) -> dict:
    return json.loads(json.dumps(face.checkpoint() if isinstance(face, Session)
                                 else face.snapshot()))


@pytest.mark.parametrize("cut", [1225, 8544, 9543, 9993])
@pytest.mark.parametrize("name", list(ROUND_TRIPS))
def test_capture_round_trip(name, cut):
    """A fresh capture, passed through JSON and restored, captures again
    to itself: each format's table writes what it reads.  Nothing is
    normalised at these cuts.  (A session's ``deadline_left`` counts down
    and would differ; these sessions have no deadline.)"""
    make, restore = ROUND_TRIPS[name]
    first = _capture(make(cut))
    assert _capture(restore(json.loads(json.dumps(first)))) == first


def test_manifest_round_trip(tmp_path):
    """A store manifest loads and writes back byte for byte."""
    from repro.store.log import MANIFEST_NAME, EventLogWriter, _Manifest

    writer = EventLogWriter(str(tmp_path), segment_events=200)
    writer.feed(DOC[:9543])
    writer.close()
    path = tmp_path / MANIFEST_NAME
    manifest = _Manifest.load(str(path))
    assert len(manifest.segments) > 1
    assert manifest.dumps() == path.read_text()


# -- the tokenizer numbers past every id a capture holds -------------------------

def test_next_id_below_a_held_candidate_is_refused():
    """A tokenizer ``next_id`` of 7 once renumbered the rest of the
    document from 8, and the restore finished with ``[283, 163]``
    instead of ``[283, 440]``."""
    golden = _load("compiled_twigm_snapshot.json")
    snapshot = golden["snapshot"]
    assert XPathStream.restore(json.loads(json.dumps(snapshot))) is not None
    snapshot["tokenizer"]["next_id"] = 7
    with pytest.raises(CheckpointError, match="next_id 7 is not above id 283"):
        XPathStream.restore(snapshot)


def test_next_id_below_an_open_record_is_refused():
    """An extractor's open record holds its element's id (the lazy DFA
    holds none)."""
    extractor = SubstreamExtractor("//item/name")
    extractor.feed_text(DOC[:DOC.index("<name>", DOC.index("<item")) + 8])
    capture = _capture(extractor)
    (record,) = capture["records"]
    capture["base"]["tokenizer"]["next_id"] = record["node_id"]
    with pytest.raises(CheckpointError, match=f"not above id {record['node_id']}"):
        SubstreamExtractor.restore(capture)


def test_next_id_below_a_sinks_open_epoch_is_refused():
    """An earliest-mode callback sink holds the ids it delivered while the
    root match is open; its machine holds none of them."""
    stream = XPathStream("//a[b]//c", on_match=_ignore, emission="earliest")
    stream.feed_text("<r><a><b/><c/><c/>")
    capture = _capture(stream)
    assert capture["sink"]["seen"] == [4, 5] and capture["tokenizer"]["next_id"] == 6
    capture["tokenizer"]["next_id"] = 5
    with pytest.raises(CheckpointError, match="next_id 5 is not above id 5"):
        XPathStream.restore(capture, on_match=_ignore)


@pytest.mark.parametrize("callback", [False, True])
@pytest.mark.parametrize("query", [TWIG, "//regions//item/name",
                                   "/site/open_auctions/open_auction/bidder[increase]/date"])
def test_capture_after_a_finished_document_resumes(query, callback):
    """A finished document's ids are not held: the next document is
    numbered from 1 again, and a capture inside it resumes."""
    second = DOC[:DOC.index("</site>")].replace("<site>", "<site><regions/>", 1) + "</site>"
    fired: list = []

    def stream(face=None):
        kwargs = {"on_match": fired.append} if callback else {}
        return XPathStream.restore(face, **kwargs) if face else XPathStream(query, **kwargs)

    straight = stream()
    straight.evaluate(DOC)
    straight.feed_text(second)
    expected = fired[:] if callback else straight.close()
    fired.clear()
    live = stream()
    live.evaluate(DOC)
    live.feed_text(second[:9543])
    resumed = stream(json.loads(json.dumps(live.snapshot())))
    resumed.feed_text(second[9543:])
    result = resumed.close()
    assert (fired if callback else result) == expected
