"""Tests for the CRC-framed write-ahead event log."""

import pytest

from repro.dynamics.events import EdgeEvent, EventKind
from repro.errors import CorruptRecordError, StorageError
from repro.landmarks.wal import WriteAheadLog

TOPIC = "technology"


def _follow(source, target, time=0, topics=(TOPIC,)):
    return EdgeEvent(EventKind.FOLLOW, source, target, tuple(topics), time)


def _unfollow(source, target, time=0):
    return EdgeEvent(EventKind.UNFOLLOW, source, target, (), time)


class TestWriteAheadLog:
    def test_append_replay_round_trip(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "events.wal")
        events = [_follow(1, 2, 0), _unfollow(3, 4, 1),
                  _follow(5, 6, 2, topics=("food", "technology"))]
        for event in events:
            wal.append(event)
        assert list(wal.replay()) == events
        assert len(wal) == 3

    def test_reopen_keeps_records(self, tmp_path):
        path = tmp_path / "events.wal"
        WriteAheadLog(path).append(_follow(1, 2))
        reopened = WriteAheadLog(path)
        assert len(reopened) == 1

    def test_truncate(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "events.wal")
        wal.append(_follow(1, 2))
        wal.truncate()
        assert len(wal) == 0

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.wal"
        path.write_bytes(b"XXXX\x01")
        with pytest.raises(StorageError):
            WriteAheadLog(path)

    def test_torn_final_write_is_tolerated(self, tmp_path):
        path = tmp_path / "events.wal"
        wal = WriteAheadLog(path)
        wal.append(_follow(1, 2))
        wal.append(_follow(3, 4))
        blob = path.read_bytes()
        path.write_bytes(blob[:-3])  # tear the last record
        survivors = list(WriteAheadLog(path).replay())
        assert survivors == [_follow(1, 2)]

    def test_mid_log_corruption_detected(self, tmp_path):
        path = tmp_path / "events.wal"
        wal = WriteAheadLog(path)
        wal.append(_follow(1, 2))
        wal.append(_follow(3, 4))
        blob = bytearray(path.read_bytes())
        blob[10] ^= 0xFF  # flip a byte inside the first record
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptRecordError):
            list(WriteAheadLog(path).replay())
