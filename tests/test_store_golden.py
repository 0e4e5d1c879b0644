"""Format stability of the durable log: golden bytes, golden stores, stats.

``tests/data/golden_store_v2`` is a version-2 (text) store: the writer
must reproduce it byte for byte from ``tests/data/golden_xmark.xml``,
ingested engine-less in 1024-character chunks with
``segment_events=256``.  ``tests/data/golden_store`` is a version-1
store, one binary-coded event per record, recorded by the earlier event
writer (``segment_events=512``); nothing writes that format any more,
but the reader must replay it — from the start, through ``events()``
and from every checkpoint — to the same events, results and accounting
as before, and as the version-2 store.
"""

from __future__ import annotations

import os

import pytest

from repro.multiq.engine import MultiQueryEngine
from repro.obs.metrics import MetricsRegistry
from repro.store import EventLogReader, ReplayStats, ingest, replay
from repro.store.replay import replay_into
from repro.stream.events import (
    Characters,
    CountingHandler,
    EndElement,
    EventCollector,
    StartElement,
)
from repro.stream.tokenizer import parse_string

from tests.v1_records import decode_event, encode_event

DATA = os.path.join(os.path.dirname(__file__), "data")
GOLDEN_XML = os.path.join(DATA, "golden_xmark.xml")
GOLDEN_STORE = os.path.join(DATA, "golden_store")
GOLDEN_STORE_V2 = os.path.join(DATA, "golden_store_v2")
#: How ``golden_store_v2`` was recorded (``ci/store_smoke.py`` gate 0
#: re-ingests it the same way).
GOLDEN_CHUNK = 1024
GOLDEN_SEGMENT_EVENTS = 256
STORES = pytest.mark.parametrize("store", [GOLDEN_STORE, GOLDEN_STORE_V2],
                                 ids=["v1", "v2"])

#: ``(case, event, version-1 record body hex)`` recorded from the
#: earlier event writer.
GOLDEN_EVENTS = [
    ("level_and_id_multibyte", StartElement("item", 200, 300, {}),
     "01c801ac02046974656d00"),
    ("id_beyond_32_bits", StartElement("t", 1, 2**40, {}),
     "0101808080808020017400"),
    ("long_text", Characters("x" * 130, 3),
     "02038201" + "78" * 130),
    ("empty_text", Characters("", 2), "020200"),
    ("non_ascii_tag_and_attributes",
     StartElement("prix€", 2, 5, {"ñame": "vålue € 中文"}),
     "0102050770726978e282ac0105c3b1616d651176c3a56c756520e282ac20e4b8ade69687"),
    ("non_ascii_end", EndElement("中文", 2), "030206e4b8ade69687"),
    ("zero_attributes", StartElement("site", 1, 1, {}), "010101047369746500"),
    ("many_attributes",
     StartElement("m", 3, 9, {f"a{i}": str(i * 7) for i in range(12)}),
     "010309016d0c0261300130026131013702613202313402613302323102613402323802"
     "6135023335026136023432026137023439026138023536026139023633036131300237"
     "3003613131023737"),
    ("deep_end", EndElement("item", 130), "038201046974656d"),
    ("deep_text", Characters("café", 128), "02800105636166c3a9"),
]

GOLDEN_IDS = [case for case, _event, _hex in GOLDEN_EVENTS]


def golden_text() -> str:
    with open(GOLDEN_XML, encoding="utf-8") as handle:
        return handle.read()


def ingest_golden(store: str) -> None:
    """Record ``golden_xmark.xml`` as ``golden_store_v2`` was recorded."""
    text = golden_text()
    chunks = [text[i:i + GOLDEN_CHUNK] for i in range(0, len(text), GOLDEN_CHUNK)]
    ingest(chunks, store, segment_events=GOLDEN_SEGMENT_EVENTS, sync="none")


def store_files(path: str) -> dict[str, bytes]:
    files = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as handle:
            files[name] = handle.read()
    return files


class TestGoldenRecords:
    """Version-1 record bodies: the decoder reads the recorded bytes, and
    the fixture encoder the decoder tests use reproduces them."""

    @pytest.mark.parametrize("event,expected", [
        (event, hex_) for _case, event, hex_ in GOLDEN_EVENTS
    ], ids=GOLDEN_IDS)
    def test_encode_event_bytes(self, event, expected):
        assert encode_event(event).hex() == expected

    @pytest.mark.parametrize("event,expected", [
        (event, hex_) for _case, event, hex_ in GOLDEN_EVENTS
    ], ids=GOLDEN_IDS)
    def test_decode_golden_bytes(self, event, expected):
        assert decode_event(bytes.fromhex(expected)) == event


QUERIES = {
    "names": "//person/name",
    "bids": "//open_auction//bidder/increase",
    "people": "//person[name]/emailaddress",
    "cats": "//category/name",
}


class TestGoldenStore:
    def test_writer_reproduces_store_byte_for_byte(self, tmp_path):
        store = str(tmp_path / "store")
        ingest_golden(store)
        assert store_files(store) == store_files(GOLDEN_STORE_V2)

    def test_pull_appends_replay_identically(self, tmp_path):
        """Event-fed, the writer logs the events' text: the records differ
        from the fed text's, what replays does not."""
        from repro.store import EventLogWriter

        store = str(tmp_path / "store")
        writer = EventLogWriter(store, segment_events=GOLDEN_SEGMENT_EVENTS,
                                checkpoint_interval=1024, sync="none")
        writer.extend(parse_string(golden_text()))
        writer.checkpoint()
        writer.close()
        assert list(EventLogReader(store).events()) == list(
            EventLogReader(GOLDEN_STORE_V2).events())
        assert replay(dict(QUERIES), store) == replay(dict(QUERIES), GOLDEN_STORE_V2)

    @STORES
    def test_replay_equals_parse(self, store):
        expected = list(parse_string(golden_text()))
        assert list(EventLogReader(store).events()) == expected
        collector = EventCollector()
        EventLogReader(store).events_into(collector)
        assert collector.events == expected

    @STORES
    def test_replay_results_equal_live(self, store):
        expected = MultiQueryEngine(dict(QUERIES)).evaluate(golden_text())
        assert replay(dict(QUERIES), store) == expected
        assert replay(dict(QUERIES), store, skip=False) == expected
        for name, query in QUERIES.items():
            assert replay(query, store) == expected[name]

    def test_checkpoint_restore_reads_identically(self):
        """Both stores hold checkpoints at the same events; replay from
        each gives the same events and results on both."""
        expected = list(parse_string(golden_text()))
        old, new = EventLogReader(GOLDEN_STORE), EventLogReader(GOLDEN_STORE_V2)
        assert [c.event for c in old.checkpoints()] == [
            c.event for c in new.checkpoints()] == [1024, 1306]
        for info in new.checkpoints():
            for store in (GOLDEN_STORE, GOLDEN_STORE_V2):
                collector = EventCollector()
                replay_into(collector, store, from_checkpoint=info.id)
                assert collector.events == expected[info.event:]
            assert replay(dict(QUERIES), GOLDEN_STORE, from_checkpoint=info.id) == \
                replay(dict(QUERIES), GOLDEN_STORE_V2, from_checkpoint=info.id)


def accounting(stats: ReplayStats, metrics: MetricsRegistry) -> dict:
    recorded = stats.to_dict()
    recorded["replay_events_total"] = metrics.get(
        "repro_store_replay_events_total").get()
    return recorded


def recorded(segments_total, segments_skipped, segments_read, events_emitted,
             events_positioned_past, bytes_read, bytes_skipped) -> dict:
    return {
        "segments_total": segments_total,
        "segments_skipped": segments_skipped,
        "segments_read": segments_read,
        "events_emitted": events_emitted,
        "events_positioned_past": events_positioned_past,
        "bytes_read": bytes_read,
        "bytes_skipped": bytes_skipped,
        "skip_ratio": segments_skipped / segments_total,
        "replay_events_total": events_emitted,
    }


class TestReplayAccounting:
    """ReplayStats and the replay counter: the version-1 store's equal the
    earlier release's; the version-2 store's were recorded with it.  The
    version-2 store re-tokenises a segment from its head, so a start
    inside a segment positions past the events before it."""

    @pytest.mark.parametrize("store,target,kwargs,stats_expected,results", [
        (GOLDEN_STORE, "//person/name", {"skip": False},
         recorded(3, 0, 3, 1306, 0, 29594, 0),
         [200, 217, 227, 239, 250, 263, 268]),
        (GOLDEN_STORE, "//person/emailaddress", {},
         recorded(3, 1, 2, 1024, 0, 23272, 6322),
         [201, 218, 228, 240, 251, 264, 269]),
        (GOLDEN_STORE, "//bidder/increase", {"from_checkpoint": 1},
         recorded(3, 2, 1, 282, 0, 6322, 23272),
         [422, 445, 450, 455, 460]),
        (GOLDEN_STORE_V2, "//person/name", {"skip": False},
         recorded(5, 0, 5, 1306, 0, 16164, 0),
         [200, 217, 227, 239, 250, 263, 268]),
        (GOLDEN_STORE_V2, "//person/emailaddress", {},
         recorded(5, 3, 2, 577, 0, 6924, 9240),
         [201, 218, 228, 240, 251, 264, 269]),
        (GOLDEN_STORE_V2, "//bidder/increase", {"from_checkpoint": 1},
         recorded(5, 4, 1, 205, 113, 3545, 12619),
         [422, 445, 450, 455, 460]),
    ], ids=["v1-full", "v1-index-skipped", "v1-from-checkpoint",
            "v2-full", "v2-index-skipped", "v2-from-checkpoint"])
    def test_replay(self, store, target, kwargs, stats_expected, results):
        metrics = MetricsRegistry()
        stats = ReplayStats()
        got = replay(target, store, stats=stats, metrics=metrics, **kwargs)
        assert got == results
        assert accounting(stats, metrics) == stats_expected

    @pytest.mark.parametrize("store,stats_expected", [
        (GOLDEN_STORE, recorded(3, 1, 2, 606, 188, 17365, 12229)),
        (GOLDEN_STORE_V2, recorded(5, 2, 3, 606, 108, 8270, 7894)),
    ], ids=["v1", "v2"])
    def test_positioned_mid_segment(self, store, stats_expected):
        metrics = MetricsRegistry()
        stats = ReplayStats()
        handler = CountingHandler()
        replay_into(handler, store, start_event=700, stats=stats,
                    metrics=metrics)
        assert accounting(stats, metrics) == stats_expected
        assert (handler.starts, handler.texts, handler.ends) == (237, 127, 242)

    @STORES
    def test_on_checkpoint_fires(self, store):
        expected = [
            {"id": 1, "event": 1024, "engine_kind": None, "engine": None},
            {"id": 2, "event": 1306, "engine_kind": None, "engine": None},
        ]
        seen: list = []
        events = list(EventLogReader(store).events(
            1000, on_checkpoint=seen.append))
        assert len(events) == 306 and seen == expected
        pushed: list = []
        handler = CountingHandler()
        EventLogReader(store).events_into(
            handler, 1000, on_checkpoint=pushed.append)
        assert handler.total == 306 and pushed == expected

    @pytest.mark.parametrize("store,first", [
        (GOLDEN_STORE, 4),
        # A version-2 checkpoint follows the whole text record that
        # delivers its event.
        (GOLDEN_STORE_V2, 5),
    ], ids=["v1", "v2"])
    def test_on_checkpoint_follows_preceding_events(self, store, first):
        """The pull view delivers a checkpoint after the events before it."""
        order: list = []
        reader = EventLogReader(store)
        for _event in reader.events(1020, on_checkpoint=lambda c: order.append(c["id"])):
            order.append("e")
        assert order[:first + 1] == ["e"] * first + [1]
        assert order[-1] == 2

    @STORES
    def test_push_and_pull_views_agree_from_every_start(self, store):
        reader = EventLogReader(store)
        everything = list(reader.events())
        for start in (0, 1, 333, 334, 335, 511, 512, 513, 1024, 1305, 1306):
            collector = EventCollector()
            reader.events_into(collector, start)
            assert collector.events == everything[start:]
            assert list(reader.events(start)) == everything[start:]
