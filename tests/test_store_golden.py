"""Format stability of the durable log: golden bytes, golden store, stats.

The fixtures were recorded by the release before the log's write and
read paths became push-native; the on-disk format is unchanged, so the
current writer must reproduce them byte for byte and the current reader
must replay them to the same events, results and accounting.
"""

from __future__ import annotations

import os

import pytest

from repro.multiq.engine import MultiQueryEngine
from repro.obs.metrics import MetricsRegistry
from repro.store import EventLogReader, ReplayStats, ingest, replay
from repro.store.replay import replay_into
from repro.stream.codec import EventEncoder, decode_event, encode_event
from repro.stream.events import (
    Characters,
    CountingHandler,
    EndElement,
    EventCollector,
    StartElement,
)
from repro.stream.tokenizer import parse_string

DATA = os.path.join(os.path.dirname(__file__), "data")
GOLDEN_XML = os.path.join(DATA, "golden_xmark.xml")
GOLDEN_STORE = os.path.join(DATA, "golden_store")

#: ``(case, event, record body hex)`` recorded from the earlier release.
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


def store_files(path: str) -> dict[str, bytes]:
    files = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as handle:
            files[name] = handle.read()
    return files


class TestGoldenRecords:
    @pytest.mark.parametrize("event,expected", [
        (event, hex_) for _case, event, hex_ in GOLDEN_EVENTS
    ], ids=GOLDEN_IDS)
    def test_encode_event_bytes(self, event, expected):
        assert encode_event(event).hex() == expected

    @pytest.mark.parametrize("event,expected", [
        (event, hex_) for _case, event, hex_ in GOLDEN_EVENTS
    ], ids=GOLDEN_IDS)
    def test_callback_encoder_bytes(self, event, expected):
        encoder = EventEncoder()
        for _ in range(2):  # the second call hits the tag memo
            if isinstance(event, StartElement):
                body = encoder.start_element(
                    event.tag, event.level, event.node_id, event.attributes)
            elif isinstance(event, Characters):
                body = encoder.characters(event.text, event.level)
            else:
                body = encoder.end_element(event.tag, event.level)
            assert body.hex() == expected

    @pytest.mark.parametrize("event,expected", [
        (event, hex_) for _case, event, hex_ in GOLDEN_EVENTS
    ], ids=GOLDEN_IDS)
    def test_decode_golden_bytes(self, event, expected):
        assert decode_event(bytes.fromhex(expected)) == event


class TestGoldenStore:
    def test_writer_reproduces_store_byte_for_byte(self, tmp_path):
        store = str(tmp_path / "store")
        ingest(golden_text(), store, segment_events=512, sync="none")
        assert store_files(store) == store_files(GOLDEN_STORE)

    def test_pull_appends_reproduce_segments(self, tmp_path):
        from repro.store import EventLogWriter

        store = str(tmp_path / "store")
        writer = EventLogWriter(store, segment_events=512, checkpoint_interval=1024,
                                sync="none")
        writer.extend(parse_string(golden_text()))
        writer.checkpoint()
        writer.close()
        assert store_files(store) == store_files(GOLDEN_STORE)

    def test_replay_equals_parse(self):
        expected = list(parse_string(golden_text()))
        assert list(EventLogReader(GOLDEN_STORE).events()) == expected
        collector = EventCollector()
        EventLogReader(GOLDEN_STORE).events_into(collector)
        assert collector.events == expected

    def test_replay_results_equal_live(self):
        queries = {
            "names": "//person/name",
            "bids": "//open_auction//bidder/increase",
            "people": "//person[name]/emailaddress",
            "cats": "//category/name",
        }
        expected = MultiQueryEngine(dict(queries)).evaluate(golden_text())
        assert replay(dict(queries), GOLDEN_STORE) == expected
        assert replay(dict(queries), GOLDEN_STORE, skip=False) == expected
        for name, query in queries.items():
            assert replay(query, GOLDEN_STORE) == expected[name]


def accounting(stats: ReplayStats, metrics: MetricsRegistry) -> dict:
    recorded = stats.to_dict()
    recorded["replay_events_total"] = metrics.get(
        "repro_store_replay_events_total").get()
    return recorded


def recorded(segments_skipped, segments_read, events_emitted,
             events_positioned_past, bytes_read, bytes_skipped) -> dict:
    return {
        "segments_total": 3,
        "segments_skipped": segments_skipped,
        "segments_read": segments_read,
        "events_emitted": events_emitted,
        "events_positioned_past": events_positioned_past,
        "bytes_read": bytes_read,
        "bytes_skipped": bytes_skipped,
        "recovered_tail_bytes": 0,
        "skip_ratio": segments_skipped / 3,
        "replay_events_total": events_emitted,
    }


class TestReplayAccounting:
    """ReplayStats and the replay counter equal the earlier release's."""

    @pytest.mark.parametrize("target,kwargs,stats_expected,results", [
        ("//person/name", {"skip": False},
         recorded(0, 3, 1306, 0, 29594, 0),
         [200, 217, 227, 239, 250, 263, 268]),
        ("//person/emailaddress", {},
         recorded(1, 2, 1024, 0, 23272, 6322),
         [201, 218, 228, 240, 251, 264, 269]),
        ("//bidder/increase", {"from_checkpoint": 1},
         recorded(2, 1, 282, 0, 6322, 23272),
         [422, 445, 450, 455, 460]),
    ], ids=["full", "index-skipped", "from-checkpoint"])
    def test_replay(self, target, kwargs, stats_expected, results):
        metrics = MetricsRegistry()
        stats = ReplayStats()
        got = replay(target, GOLDEN_STORE, stats=stats, metrics=metrics, **kwargs)
        assert got == results
        assert accounting(stats, metrics) == stats_expected

    def test_positioned_mid_segment(self):
        metrics = MetricsRegistry()
        stats = ReplayStats()
        handler = CountingHandler()
        replay_into(handler, GOLDEN_STORE, start_event=700, stats=stats,
                    metrics=metrics)
        assert accounting(stats, metrics) == recorded(1, 2, 606, 188, 17365, 12229)
        assert (handler.starts, handler.texts, handler.ends) == (237, 127, 242)

    def test_on_checkpoint_fires(self):
        expected = [
            {"id": 1, "event": 1024, "engine_kind": None, "engine": None},
            {"id": 2, "event": 1306, "engine_kind": None, "engine": None},
        ]
        seen: list = []
        events = list(EventLogReader(GOLDEN_STORE).events(
            1000, on_checkpoint=seen.append))
        assert len(events) == 306 and seen == expected
        pushed: list = []
        handler = CountingHandler()
        EventLogReader(GOLDEN_STORE).events_into(
            handler, 1000, on_checkpoint=pushed.append)
        assert handler.total == 306 and pushed == expected

    def test_on_checkpoint_follows_preceding_events(self):
        """The pull view delivers a checkpoint after the events before it."""
        order: list = []
        reader = EventLogReader(GOLDEN_STORE)
        for _event in reader.events(1020, on_checkpoint=lambda c: order.append(c["id"])):
            order.append("e")
        assert order[:5] == ["e", "e", "e", "e", 1]
        assert order[-1] == 2

    def test_push_and_pull_views_agree_from_every_start(self):
        reader = EventLogReader(GOLDEN_STORE)
        everything = list(reader.events())
        for start in (0, 1, 511, 512, 513, 1024, 1305, 1306):
            collector = EventCollector()
            reader.events_into(collector, start)
            assert collector.events == everything[start:]
            assert list(reader.events(start)) == everything[start:]
