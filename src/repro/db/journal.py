"""Append-only journal with per-record CRC framing and salvage.

The campaign store's write-ahead log.  Every record is a self-delimiting
binary frame::

    u16  magic     0x4A45 ("EJ", little-endian on the wire)
    u8   version   JOURNAL_SCHEMA_MAJOR
    u8   type      one ASCII letter naming the record kind
    u32  length    payload byte count
    u32  crc       CRC-32 of version | type | length | payload
    ...  payload   canonical JSON (UTF-8, sorted keys, tight separators)

Appends go through one buffered file handle; :meth:`JournalWriter.sync`
flushes and fsyncs, which callers invoke once per transaction (epoch
barrier), not per record.

Reading is built for hostile files.  :func:`scan_journal` walks the
frames and *salvages everything that verifies*:

* a **torn tail** (kill mid-append) truncates the scan cleanly,
* a record whose CRC or JSON fails is **quarantined** — its bytes are
  handed back so the store can preserve them under ``corrupt/`` — and
  the scan resynchronises on the next frame magic,
* nothing in this module ever raises on corrupt input; the salvage
  report says exactly what was kept, dropped and lost.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = ["JOURNAL_SCHEMA_MAJOR", "JournalRecord", "JournalScan",
           "JournalWriter", "encode_record", "decode_record",
           "scan_journal", "read_journal"]

#: Major version stamped into every frame; a reader that sees a frame
#: with an unknown major quarantines that frame (it cannot know the
#: payload's meaning) and keeps scanning.
JOURNAL_SCHEMA_MAJOR = 1

MAGIC = 0x4A45  # "EJ"
_HEADER = struct.Struct("<HBBII")  # magic, version, type, length, crc
HEADER_SIZE = _HEADER.size

#: Upper bound on one payload; a "length" beyond this is framing
#: corruption, not a huge record.
MAX_PAYLOAD = 64 * 1024 * 1024


@dataclass(frozen=True)
class JournalRecord:
    """One decoded journal record."""

    rtype: str
    payload: Dict[str, object]


@dataclass
class JournalScan:
    """What a journal read salvaged (and what it could not)."""

    records: List[JournalRecord] = field(default_factory=list)
    salvaged: int = 0            # records that verified end-to-end
    quarantined: int = 0         # corrupt spans dropped mid-file
    quarantined_bytes: int = 0
    torn_tail_bytes: int = 0     # incomplete final frame (kill mid-append)
    corrupt_spans: List[bytes] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when every byte of the journal verified."""
        return not self.quarantined and not self.torn_tail_bytes


def _payload_bytes(payload: Dict[str, object]) -> bytes:
    return json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def _crc(version: int, rtype: int, body: bytes) -> int:
    head = struct.pack("<BBI", version, rtype, len(body))
    return zlib.crc32(body, zlib.crc32(head)) & 0xFFFFFFFF


def encode_record(rtype: str, payload: Dict[str, object]) -> bytes:
    """Frame one record (the campaign wire reuses this encoding)."""
    if len(rtype) != 1:
        raise ValueError(f"record type must be one character: {rtype!r}")
    body = _payload_bytes(payload)
    if len(body) > MAX_PAYLOAD:
        raise ValueError(f"record payload too large: {len(body)} bytes")
    type_code = ord(rtype)
    crc = _crc(JOURNAL_SCHEMA_MAJOR, type_code, body)
    return _HEADER.pack(MAGIC, JOURNAL_SCHEMA_MAJOR, type_code,
                        len(body), crc) + body


def decode_record(raw: bytes) -> Optional[JournalRecord]:
    """Decode exactly one frame; None unless every check passes."""
    record, consumed, _ = _try_decode_at(raw, 0)
    if record is None or consumed != len(raw):
        return None
    return record


def _try_decode_at(data: bytes, offset: int
                   ) -> Tuple[Optional[JournalRecord], int, bool]:
    """Attempt one frame at ``offset``.

    Returns ``(record, bytes_consumed, torn)``: a verified record and
    its frame size; ``(None, 0, True)`` when the remaining bytes are a
    plausible-but-incomplete frame (torn tail); ``(None, 0, False)``
    when the bytes at ``offset`` are not a valid frame at all.
    """
    remaining = len(data) - offset
    if remaining < HEADER_SIZE:
        # Too short even for a header: torn tail if it still looks like
        # the start of a frame, garbage otherwise.
        if remaining >= 2 and \
                struct.unpack_from("<H", data, offset)[0] == MAGIC:
            return None, 0, True
        return None, 0, False
    magic, version, type_code, length, crc = _HEADER.unpack_from(
        data, offset)
    if magic != MAGIC:
        return None, 0, False
    if version != JOURNAL_SCHEMA_MAJOR or length > MAX_PAYLOAD:
        return None, 0, False
    end = offset + HEADER_SIZE + length
    if end > len(data):
        # Frame extends past EOF: a kill mid-append.  (A corrupt length
        # field can also land here; either way the tail is unusable and
        # the CRC would have caught the corruption.)
        return None, 0, True
    body = bytes(data[offset + HEADER_SIZE:end])
    if _crc(version, type_code, body) != crc:
        return None, 0, False
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError):
        return None, 0, False
    if not isinstance(payload, dict):
        return None, 0, False
    return (JournalRecord(rtype=chr(type_code), payload=payload),
            HEADER_SIZE + length, False)


def _next_magic(data: bytes, start: int) -> int:
    """Offset of the next possible frame start at/after ``start``."""
    magic_bytes = struct.pack("<H", MAGIC)
    index = data.find(magic_bytes, start)
    return index if index >= 0 else len(data)


def scan_journal(data: bytes) -> JournalScan:
    """Salvage every verifiable record from raw journal bytes.

    Corrupt spans (bad magic, failed CRC, undecodable payload) are
    collected for quarantine and the scan resynchronises on the next
    frame magic; an incomplete final frame is reported as a torn tail.
    Never raises.
    """
    scan = JournalScan()
    offset = 0
    bad_start: Optional[int] = None
    size = len(data)
    while offset < size:
        record, consumed, torn = _try_decode_at(data, offset)
        if record is not None:
            if bad_start is not None:
                _quarantine(scan, data, bad_start, offset)
                bad_start = None
            scan.records.append(record)
            scan.salvaged += 1
            offset += consumed
            continue
        if torn and bad_start is None:
            # Plausible frame running past EOF: the classic torn tail.
            scan.torn_tail_bytes = size - offset
            return scan
        # Not a frame here: remember where the bad span began and hop
        # to the next candidate magic.
        if bad_start is None:
            bad_start = offset
        offset = _next_magic(data, offset + 1)
    if bad_start is not None:
        _quarantine(scan, data, bad_start, size)
    return scan


def _quarantine(scan: JournalScan, data: bytes, start: int,
                end: int) -> None:
    span = bytes(data[start:end])
    scan.corrupt_spans.append(span)
    scan.quarantined += 1
    scan.quarantined_bytes += len(span)


def read_journal(path: str) -> JournalScan:
    """Read and salvage a journal file (missing file = empty scan)."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        return JournalScan()
    return scan_journal(data)


class JournalWriter:
    """Buffered appender; one fsync per :meth:`sync`, not per record."""

    def __init__(self, path: str):
        self.path = str(path)
        self._fh = open(self.path, "ab")
        self.records_written = 0
        self.bytes_written = 0

    def append(self, rtype: str, payload: Dict[str, object]) -> int:
        """Buffer one framed record; returns its frame size in bytes."""
        frame = encode_record(rtype, payload)
        self._fh.write(frame)
        self.records_written += 1
        self.bytes_written += len(frame)
        return len(frame)

    def sync(self) -> None:
        """Flush buffered frames and fsync the file."""
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        """Sync and close (idempotent)."""
        if not self._fh.closed:
            self.sync()
            self._fh.close()
