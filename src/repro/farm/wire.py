"""Worker wire protocol: specs, framing and epoch-result payloads.

Everything a campaign moves across a process boundary goes through
this module, in exactly the serialized forms the stack already trusts:

* **payloads** are canonical JSON built from the existing round-trip
  codecs — :func:`repro.fuzz.corpus.entry_to_record`,
  :meth:`repro.fuzz.crash.CrashReport.to_dict`,
  :meth:`repro.fuzz.stats.FuzzStats.to_dict`;
* **framing** reuses the campaign journal's CRC record format
  (:func:`repro.db.journal.encode_record`), so a torn or corrupt frame
  is detected the same way a torn journal is.

There is one framing and two ways to carry it.  :class:`PipeFrameIO`
runs over any pair of binary streams: the process backend hands it a
child's stdout/stdin, and a future cross-host transport would be
``PipeFrameIO(sock.makefile("rb"), sock.makefile("wb"))``.
:class:`MemoryFrameIO` is the inline backend's in-memory frame pair:
it frames and decodes every message exactly as a pipe would, then
hands it to the worker's dispatcher on the caller's thread.  The
coordinator's handles (:mod:`repro.farm.handles`) and the worker
(:mod:`repro.farm.procworker`) are the same over both.  Transport
death — EOF, broken pipe, CRC failure — always surfaces as
:class:`WorkerTransportError`; the orchestrator maps it to a lost
worker, never a hung barrier.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass
from typing import (BinaryIO, Callable, Dict, List, Optional, Sequence,
                    Set, Tuple)

from repro.db.journal import MAGIC, MAX_PAYLOAD, encode_record
from repro.db.journal import decode_record as _decode_journal_record
from repro.fuzz.corpus import CorpusEntry, entry_from_record, entry_to_record
from repro.fuzz.crash import CrashReport

__all__ = ["WorkerSpec", "WorkerTransportError", "PipeFrameIO",
           "MemoryFrameIO", "encode_epoch_result", "decode_epoch_result",
           "frame_size", "worker_trace_dir"]

#: Record-type letter of a worker frame in the journal CRC format.
WIRE_RECORD_TYPE = "W"

#: Journal frame header: u16 magic | u8 version | u8 type | u32 length
#: | u32 crc (repro.db.journal).  The reader only needs magic and
#: length offsets; full verification goes through ``decode_record``.
_HEADER_SIZE = 12


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a worker needs to build its engine, on either backend.

    The coordinator derives ``index``/``seed``/``budget_cycles``/
    ``campaign_seed`` per worker from the campaign options (a
    splitmix64 mix of the campaign seed and the index), so a campaign
    stays a pure function of ``(campaign_seed, workers,
    sync_interval)`` no matter where its engines run.  A non-empty
    ``trace_dir`` makes the worker trace itself into
    :func:`worker_trace_dir`, sampling its time series every
    ``sample_interval`` cycles.
    """

    target: str
    index: int = 0
    seed: int = 0
    budget_cycles: int = 0
    snapshots: bool = True
    name: str = ""
    trace_dir: str = ""
    sample_interval: int = 0
    campaign_seed: int = 0

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "WorkerSpec":
        return cls(target=str(data.get("target", "")),
                   index=int(data.get("index", 0)),
                   seed=int(data.get("seed", 0)),
                   budget_cycles=int(data.get("budget_cycles", 0)),
                   snapshots=bool(data.get("snapshots", True)),
                   name=str(data.get("name", "")),
                   trace_dir=str(data.get("trace_dir", "")),
                   sample_interval=int(data.get("sample_interval", 0)),
                   campaign_seed=int(data.get("campaign_seed", 0)))


def worker_trace_dir(trace_dir: str, index: int) -> str:
    """Where worker ``index`` of a campaign traced into ``trace_dir``
    writes its own artifact set."""
    return os.path.join(trace_dir, f"worker-{index}")


class WorkerTransportError(RuntimeError):
    """The worker's transport died (EOF, broken pipe, corrupt frame)."""


def _encode_frame(kind: str, payload: Dict[str, object]) -> bytes:
    return encode_record(WIRE_RECORD_TYPE, {"kind": kind, "body": payload})


def _decode_frame(frame: bytes) -> Tuple[str, Dict[str, object]]:
    record = _decode_journal_record(frame)
    if record is None:
        raise WorkerTransportError("worker frame failed CRC")
    kind = str(record.payload.get("kind", ""))
    message = record.payload.get("body")
    if not kind or not isinstance(message, dict):
        raise WorkerTransportError("malformed worker message")
    return kind, message


class PipeFrameIO:
    """Journal-CRC frames over a pair of byte streams.

    One message is one journal record whose payload is
    ``{"kind": verb, "body": {...}}``; CRC failure or a short read is a
    dead worker, not a parse error to retry.
    """

    def __init__(self, rfile: BinaryIO, wfile: BinaryIO):
        self._rfile = rfile
        self._wfile = wfile
        #: Size of the most recent frame in either direction — the
        #: sync-delta-bytes histogram samples this after each epoch
        #: result.
        self.last_frame_bytes = 0

    def send(self, kind: str, payload: Dict[str, object]) -> int:
        frame = _encode_frame(kind, payload)
        try:
            self._wfile.write(frame)
            self._wfile.flush()
        except (OSError, ValueError) as exc:
            raise WorkerTransportError(
                f"worker pipe write failed: {exc}") from exc
        self.last_frame_bytes = len(frame)
        return len(frame)

    def recv(self) -> Tuple[str, Dict[str, object]]:
        header = self._read_exact(_HEADER_SIZE)
        if int.from_bytes(header[0:2], "little") != MAGIC:
            raise WorkerTransportError("bad worker frame magic")
        length = int.from_bytes(header[4:8], "little")
        if length > MAX_PAYLOAD:
            raise WorkerTransportError(
                f"worker frame length {length} exceeds bound")
        message = _decode_frame(header + self._read_exact(length))
        self.last_frame_bytes = _HEADER_SIZE + length
        return message

    def _read_exact(self, count: int) -> bytes:
        chunks = bytearray()
        while len(chunks) < count:
            try:
                chunk = self._rfile.read(count - len(chunks))
            except (OSError, ValueError) as exc:
                raise WorkerTransportError(
                    f"worker pipe read failed: {exc}") from exc
            if not chunk:
                raise WorkerTransportError("worker pipe closed")
            chunks += chunk
        return bytes(chunks)

    def close(self) -> None:
        for stream in (self._wfile, self._rfile):
            try:
                stream.close()
            except (OSError, ValueError):
                pass


#: A worker's answer to one request: the reply's ``(kind, payload)``,
#: or None for a request that has no reply.
Reply = Optional[Tuple[str, Dict[str, object]]]


class MemoryFrameIO:
    """An in-memory frame pair with the worker's dispatcher at the far
    end: no pipe and no thread.

    :meth:`send` frames the message, decodes the frame and answers it
    on the caller's thread, so the worker sees exactly the payload a
    pipe would deliver and ``last_frame_bytes`` is a measured frame
    size.  Whatever the dispatcher raises (``KeyboardInterrupt``
    included) propagates out of :meth:`send` unchanged; the framed
    reply waits for :meth:`recv`.
    """

    def __init__(self, answer: Callable[[str, Dict[str, object]], Reply]):
        self._answer = answer
        self._replies: List[bytes] = []
        self.last_frame_bytes = 0

    def send(self, kind: str, payload: Dict[str, object]) -> int:
        frame = _encode_frame(kind, payload)
        self.last_frame_bytes = len(frame)
        reply = self._answer(*_decode_frame(frame))
        if reply is not None:
            self._replies.append(_encode_frame(*reply))
        return len(frame)

    def recv(self) -> Tuple[str, Dict[str, object]]:
        if not self._replies:
            raise WorkerTransportError("the worker sent no reply")
        frame = self._replies.pop(0)
        self.last_frame_bytes = len(frame)
        return _decode_frame(frame)

    def close(self) -> None:
        self._replies.clear()


# -- epoch-result payload ----------------------------------------------------

def encode_epoch_result(status: str, entries: Sequence[CorpusEntry],
                        edges: Sequence[int],
                        crashes: Sequence[CrashReport],
                        summary: Dict[str, int],
                        cycles: int) -> Dict[str, object]:
    """One epoch barrier's worth of worker state, JSON-friendly.

    Entries whose programs the protocol cannot encode (hostile-test
    constructions only; generated programs always encode) are counted
    in ``dropped`` rather than half-shipped.
    """
    records = []
    dropped = 0
    for entry in entries:
        record = entry_to_record(entry)
        if record is None:
            dropped += 1
            continue
        records.append(record)
    return {
        "status": status,
        "entries": records,
        "dropped": dropped,
        "edges": sorted(int(edge) for edge in edges),
        "crashes": [report.to_dict() for report in crashes],
        "summary": {key: int(value) for key, value in summary.items()},
        "cycles": int(cycles),
    }


def decode_epoch_result(payload: Dict[str, object]
                        ) -> Tuple[str, List[CorpusEntry], Set[int],
                                   List[CrashReport], Dict[str, int],
                                   int]:
    """Inverse of :func:`encode_epoch_result`."""
    entries = [entry_from_record(dict(record))
               for record in payload.get("entries", [])]
    edges = {int(edge) for edge in payload.get("edges", [])}
    crashes = [CrashReport.from_dict(dict(record))
               for record in payload.get("crashes", [])]
    summary = {str(key): int(value) for key, value
               in dict(payload.get("summary", {})).items()}
    return (str(payload.get("status", "aborted")), entries, edges,
            crashes, summary, int(payload.get("cycles", 0)))


def frame_size(kind: str, payload: Dict[str, object]) -> int:
    """Frame size of one message without shipping it."""
    return len(_encode_frame(kind, payload))
