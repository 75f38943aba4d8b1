# repro: ignore[W5] -- the durable ingest log (ROADMAP item 6) reuses this CRC framing; only its tests import it until then
"""CRC-framed write-ahead log of follow/unfollow events.

Every event is appended as one length-prefixed, checksummed record
before it is applied — the same hygiene as the index snapshot format —
so a replay after a crash either yields the exact logged prefix or
raises :class:`~repro.errors.CorruptRecordError`; a torn final record
(a crash mid-append) ends the replay cleanly.
"""

from __future__ import annotations

import struct
import zlib
from pathlib import Path
from typing import Iterator, List, Union

from ..errors import CorruptRecordError, StorageError
from ..graph.events import EdgeEvent, EventKind
from ..utils.varint import decode_uvarint, encode_uvarint

PathLike = Union[str, Path]

_WAL_MAGIC = b"RPWL"
_WAL_VERSION = 1
_CRC = struct.Struct("<I")
_KIND_CODE = {EventKind.FOLLOW: 0, EventKind.UNFOLLOW: 1}
_CODE_KIND = {code: kind for kind, code in _KIND_CODE.items()}


def _encode_event(event: EdgeEvent) -> bytes:
    payload = bytearray()
    payload += encode_uvarint(_KIND_CODE[event.kind])
    payload += encode_uvarint(event.source)
    payload += encode_uvarint(event.target)
    payload += encode_uvarint(event.time)
    payload += encode_uvarint(len(event.topics))
    for topic in event.topics:
        blob = topic.encode("utf-8")
        payload += encode_uvarint(len(blob))
        payload += blob
    return bytes(payload)


def _decode_event(payload: bytes) -> EdgeEvent:
    cursor = 0
    kind_code, cursor = decode_uvarint(payload, cursor)
    source, cursor = decode_uvarint(payload, cursor)
    target, cursor = decode_uvarint(payload, cursor)
    time, cursor = decode_uvarint(payload, cursor)
    topic_count, cursor = decode_uvarint(payload, cursor)
    topics: List[str] = []
    for _ in range(topic_count):
        length, cursor = decode_uvarint(payload, cursor)
        topics.append(payload[cursor:cursor + length].decode("utf-8"))
        cursor += length
    kind = _CODE_KIND.get(kind_code)
    if kind is None:
        raise CorruptRecordError(f"unknown event kind code {kind_code}")
    return EdgeEvent(kind=kind, source=source, target=target,
                     topics=tuple(topics), time=time)


class WriteAheadLog:
    """Append-only, CRC-checked event log.

    Example::

        wal = WriteAheadLog(tmp_path / "events.wal")
        wal.append(event)
        list(wal.replay())
    """

    def __init__(self, path: PathLike) -> None:
        self.path = Path(path)
        if not self.path.exists():
            self.path.write_bytes(_WAL_MAGIC + bytes([_WAL_VERSION]))
        else:
            header = self.path.read_bytes()[:5]
            if header[:4] != _WAL_MAGIC:
                raise StorageError(f"{self.path} is not a WAL (bad magic)")
            if header[4] != _WAL_VERSION:
                raise StorageError(
                    f"{self.path}: unsupported WAL version {header[4]}")

    def append(self, event: EdgeEvent) -> None:
        """Durably append one event (length + CRC + payload)."""
        payload = _encode_event(event)
        record = (encode_uvarint(len(payload))
                  + _CRC.pack(zlib.crc32(payload)) + payload)
        with self.path.open("ab") as handle:
            handle.write(record)
            handle.flush()

    def replay(self) -> Iterator[EdgeEvent]:
        """Yield every logged event in append order.

        Raises:
            CorruptRecordError: on a CRC mismatch; a *trailing*
                truncated record (torn final write) is tolerated and
                ends the replay, standard WAL-recovery behaviour.
        """
        blob = self.path.read_bytes()
        offset = 5
        while offset < len(blob):
            try:
                length, cursor = decode_uvarint(blob, offset)
            except CorruptRecordError:
                return  # torn length prefix at the tail
            if cursor + _CRC.size + length > len(blob):
                return  # torn final record
            expected = _CRC.unpack_from(blob, cursor)[0]
            cursor += _CRC.size
            payload = blob[cursor:cursor + length]
            if zlib.crc32(payload) != expected:
                raise CorruptRecordError(
                    f"{self.path}: CRC mismatch at offset {offset}")
            yield _decode_event(payload)
            offset = cursor + length

    def __len__(self) -> int:
        return sum(1 for _ in self.replay())

    def truncate(self) -> None:
        """Reset the log (after a successful checkpoint)."""
        self.path.write_bytes(_WAL_MAGIC + bytes([_WAL_VERSION]))
