"""Tests for result sinks (repro.core.results).

The contract: ``emit`` is a new solution and is delivered as is;
``emit_all`` is a released candidate set, filtered against the ids
released since the last ``end_epoch``.
"""

import pytest

from repro.core.results import CallbackSink, CollectingSink, CountingSink, ResultSink
from repro.errors import CheckpointError


class TestCollectingSink:
    def test_collects_in_order(self):
        sink = CollectingSink()
        sink.emit(3)
        sink.emit(1)
        sink.emit(2)
        assert sink.results == [3, 1, 2]

    def test_deduplicates(self):
        sink = CollectingSink()
        sink.emit_all([1, 2])
        sink.emit_all([1, 3, 2])
        assert sink.results == [1, 2, 3]
        assert sink._seen == {1, 2, 3}
        sink.end_epoch()
        assert sink._seen == set()
        sink.emit_all([4, 4])
        assert sink.results == [1, 2, 3, 4]

    def test_emit_records_nothing(self):
        sink = CollectingSink()
        sink.emit(7)
        assert sink.results == [7]
        assert sink._seen == set()

    def test_emit_all(self):
        sink = CollectingSink()
        sink.emit_all([5, 6, 5])
        assert sink.results == [5, 6]

    def test_len_and_iter(self):
        sink = CollectingSink()
        sink.emit_all([1, 2])
        assert len(sink) == 2
        assert list(sink) == [1, 2]
        assert sink.emitted == 2


class TestCallbackSink:
    def test_forwards_each_new_id(self):
        seen = []
        sink = CallbackSink(seen.append)
        sink.emit(1)
        sink.emit_all([2, 3])
        sink.emit_all([3, 2, 4])
        sink.emit(5)
        assert seen == [1, 2, 3, 4, 5]
        assert sink.emitted == 5
        assert sink.snapshot_state() == {"seen": [2, 3, 4], "emitted": 5}
        sink.end_epoch()
        assert sink.snapshot_state() == {"seen": [], "emitted": 5}

    def test_restore_reads_legacy_and_collecting_captures(self):
        seen = []
        sink = CallbackSink(seen.append)
        sink.restore_state({"seen": [1, 2, 3]})  # no ``emitted``: all of seen
        assert sink.emitted == 3
        sink.emit_all([2, 5])
        assert seen == [5]
        other = CallbackSink(seen.append)
        other.restore_state({"results": [8, 9]})
        assert (other._seen, other.emitted) == ({8, 9}, 2)

    def test_restore_rejects_unknown_keys(self):
        with pytest.raises(CheckpointError):
            CallbackSink(print).restore_state({"seen": [], "bogus": 1})
        with pytest.raises(CheckpointError):
            CollectingSink().restore_state([1, 2])


class TestCountingSink:
    def test_counts_distinct(self):
        sink = CountingSink()
        sink.emit_all([1, 1, 2, 3, 3, 3])
        assert sink.count == 3
        sink.end_epoch()
        sink.emit(4)
        assert sink.count == 4
        assert sink._seen == set()


class TestProtocol:
    def test_base_emit_is_abstract(self):
        with pytest.raises(NotImplementedError):
            ResultSink().emit(1)

    def test_base_end_epoch_is_a_no_op(self):
        ResultSink().end_epoch()
