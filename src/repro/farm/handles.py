"""Worker handles: one protocol, two transports.

The orchestrator drives every worker through one handle class,
:class:`_RemoteHandle`, which speaks the whole protocol — begin/join
an epoch, inspect what the worker knows, deliver imports, collect the
final result — so *where* the engine runs (on the coordinator or in a
child process) is a transport decision, not an orchestration one.
Every worker is built from its :class:`~repro.farm.wire.WorkerSpec`
by :class:`repro.farm.procworker.Worker`, which runs the board
through one :class:`WorkerCore`: the engine plus the barrier
bookkeeping that turns an epoch into a delta (entries not yet
offered, edges not yet reported, crashes past the last offset).

* ``inline`` (:class:`_RemoteHandle` itself) — the worker lives in
  this process behind an in-memory frame pair
  (:class:`~repro.farm.wire.MemoryFrameIO`); each request is answered
  on the coordinator thread while it is sent, so an epoch runs inside
  ``begin_epoch``, one board after another.  This is the determinism
  reference: fixed ``(campaign_seed, workers, sync_interval)``
  campaigns stay byte-identical.
* ``process`` (:class:`ProcessHandle`) — the worker lives in a child
  process (``python -m repro.farm.procworker``), the same frames
  carried over its pipes.

Both transports carry journal-CRC frames of identical canonical-JSON
payloads (:mod:`repro.farm.wire`).  The handle mirrors the worker's
offered/delivered digest sets, edge frontier, summary and clock on
the coordinator, updating them from the ``started`` reply and from
each epoch's *delta*.  At a barrier the mirror equals the live engine
state: pushes always precede pulls within a barrier, delivered imports
only execute in the *next* epoch (so they arrive in the next delta),
and a DONE worker's later deltas are empty.  That is why a campaign
merges the same frontier, corpus digests and crash signatures under
both backends — with O(delta) traffic.

A dead transport surfaces as :class:`WorkerLost`; the orchestrator
degrades the board to quarantined instead of hanging the barrier.
"""

from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Set

from repro.errors import RecoveryExhausted
from repro.fuzz.corpus import CorpusEntry, entry_to_record
from repro.fuzz.crash import CrashDb, CrashReport
from repro.fuzz.engine import EofEngine, FuzzResult
from repro.fuzz.feedback import CoverageMap
from repro.fuzz.stats import FuzzStats
from repro.farm.wire import (
    MemoryFrameIO,
    PipeFrameIO,
    WorkerSpec,
    WorkerTransportError,
    decode_epoch_result,
    encode_epoch_result,
)

#: Worker liveness states across epochs (shared with the orchestrator).
LIVE, DONE, ABORTED = "live", "done", "aborted"

#: The summary fields every backend reports at each barrier.
SUMMARY_FIELDS = ("edges", "execs", "crashes", "restores",
                  "snapshot_restores", "snapshot_fallbacks")


class WorkerLost(WorkerTransportError):
    """A worker's transport died mid-campaign."""

    def __init__(self, index: int, reason: str):
        super().__init__(f"worker {index} lost: {reason}")
        self.index = index
        self.reason = reason


@dataclass
class EpochOutcome:
    """What one worker brought to one epoch barrier."""

    status: str
    entries: List[CorpusEntry] = field(default_factory=list)
    edges: Set[int] = field(default_factory=set)
    crashes: List[CrashReport] = field(default_factory=list)
    summary: Dict[str, int] = field(default_factory=dict)
    cycles: int = 0
    #: Bytes the epoch result's frame took (measured on both backends).
    wire_bytes: int = 0


class WorkerCore:
    """One engine plus the delta bookkeeping of its barriers.

    Every worker runs its board through this class, on either backend.
    :meth:`run` is the epoch body and only runs the engine;
    :meth:`close_epoch` takes what is new since the last barrier.
    """

    def __init__(self, engine: EofEngine, budget_cycles: int):
        self.engine = engine
        self.budget_cycles = budget_cycles
        self._offered: Set[str] = set()
        self._reported_edges: Set[int] = set()
        self._crash_offset = 0

    def run(self, target_cycles: int) -> str:
        """Fuzz to the epoch target; the worker's status afterwards."""
        try:
            if self.engine.run_until(target_cycles):
                return LIVE if self.cycles() < self.budget_cycles \
                    else DONE
            return DONE
        except RecoveryExhausted:
            # Quarantined board: the worker is dead, its findings are
            # not — the barrier still merges them.
            return ABORTED

    def close_epoch(self, status: str) -> Dict[str, object]:
        """The barrier's ``epoch_result`` payload: entries not yet
        offered, edges not yet reported, crashes past the last offset."""
        engine = self.engine
        entries = [entry for entry in engine.corpus.entries
                   if entry.digest not in self._offered]
        self._offered.update(entry.digest for entry in entries)
        edges = engine.coverage.edges - self._reported_edges
        self._reported_edges |= edges
        unique = engine.crash_db.unique_crashes()
        crashes = unique[self._crash_offset:]
        self._crash_offset = len(unique)
        return encode_epoch_result(status, entries, edges, crashes,
                                   self.summary(), self.cycles())

    def deliver(self, entries: List[CorpusEntry]) -> None:
        self.engine.inject_programs([entry.program for entry in entries])

    def summary(self) -> Dict[str, int]:
        stats = self.engine.stats
        return {
            "edges": self.engine.coverage.edge_count,
            "execs": stats.programs_executed,
            "crashes": stats.unique_crashes,
            "restores": stats.restorations,
            "snapshot_restores": stats.snapshot_restores,
            "snapshot_fallbacks": stats.snapshot_fallbacks,
        }

    def cycles(self) -> int:
        session = self.engine.session
        return 0 if session is None else session.board.machine.cycles


class _RemoteHandle:
    """The coordinator's end of the protocol: one worker behind a
    frame stream.

    By itself it is the inline backend's handle: the worker answers
    over an in-memory frame pair on the coordinator thread.
    :class:`ProcessHandle` moves the worker into a child process.  All
    I/O happens on the coordinator thread; the fields below are
    coordinator-side mirrors of the worker, advanced by its replies.
    """

    def __init__(self, index: int, spec: WorkerSpec):
        self.index = index
        self.spec = spec
        self._io = None
        self._known: Set[str] = set()
        self._edges: Set[int] = set()
        self._summary: Dict[str, int] = {
            key: 0 for key in SUMMARY_FIELDS}
        self._cycles = 0
        self._lost_reason = ""
        self._final: Optional[FuzzResult] = None

    # -- transport ----------------------------------------------------------

    def _open_transport(self) -> None:
        # procworker imports this module and is the child's
        # ``__main__``: a module-level import here would be circular,
        # and would load it a second time under ``python -m``.
        from repro.farm.procworker import Worker
        self._io = MemoryFrameIO(Worker().answer)

    def _close_transport(self) -> None:
        if self._io is not None:
            self._io.close()

    def _send(self, kind: str, payload: Dict[str, object]) -> None:
        if self._lost_reason:
            raise WorkerLost(self.index, self._lost_reason)
        try:
            self._io.send(kind, payload)
        except WorkerTransportError as exc:
            self._lost_reason = str(exc)
            raise WorkerLost(self.index, self._lost_reason) from exc

    def _recv(self, expected: str) -> Dict[str, object]:
        if self._lost_reason:
            raise WorkerLost(self.index, self._lost_reason)
        try:
            kind, payload = self._io.recv()
        except WorkerTransportError as exc:
            self._lost_reason = str(exc)
            raise WorkerLost(self.index, self._lost_reason) from exc
        if kind == "error":
            # The worker reported a real failure (bad spec, boot
            # exception).  That is a campaign bug, not a lost
            # transport: surface it.
            raise RuntimeError(
                f"worker {self.index} failed: "
                f"{payload.get('message', 'unknown error')}")
        if kind != expected:
            self._lost_reason = (f"protocol violation: expected "
                                 f"{expected!r}, got {kind!r}")
            raise WorkerLost(self.index, self._lost_reason)
        return payload

    # -- lifecycle ----------------------------------------------------------

    def begin_start(self) -> None:
        self._open_transport()
        self._send("hello", {"spec": self.spec.to_dict()})
        self._send("start", {})

    def join_start(self) -> None:
        payload = self._recv("started")
        self._cycles = int(payload.get("cycles", 0))
        self._summary = {key: int(value) for key, value
                         in dict(payload.get("summary", {})).items()}

    def begin_epoch(self, epoch: int, target_cycles: int) -> None:
        self._send("epoch", {"epoch": epoch, "target": target_cycles})

    def join_epoch(self) -> EpochOutcome:
        payload = self._recv("epoch_result")
        status, entries, edges, crashes, summary, cycles = \
            decode_epoch_result(payload)
        self._known.update(entry.digest for entry in entries)
        self._edges |= edges
        self._summary = summary
        self._cycles = cycles
        return EpochOutcome(status=status, entries=entries, edges=edges,
                            crashes=crashes, summary=summary,
                            cycles=cycles,
                            wire_bytes=self._io.last_frame_bytes)

    def known_digests(self) -> Set[str]:
        return set(self._known)

    def local_edges(self) -> Set[int]:
        return self._edges

    def deliver(self, entries: List[CorpusEntry]) -> None:
        records = []
        for entry in entries:
            record = entry_to_record(entry)
            if record is not None:
                records.append(record)
        self._known.update(entry.digest for entry in entries)
        self._send("deliver", {"entries": records})
        self._recv("delivered")

    def summary(self) -> Dict[str, int]:
        return dict(self._summary)

    def cycles(self) -> int:
        return self._cycles

    def finish(self) -> FuzzResult:
        if self._final is not None:
            return self._final
        if self._lost_reason:
            self._final = self._degraded_result()
            return self._final
        try:
            self._send("finish", {})
            payload = self._recv("finished")
        except WorkerLost:
            self._final = self._degraded_result()
            return self._final
        stats = FuzzStats.from_dict(dict(payload.get("stats", {})))
        coverage = CoverageMap()
        coverage.add_edges(int(edge) for edge in
                           payload.get("edges", []))
        crash_db = CrashDb()
        for record in payload.get("crashes", []):
            crash_db.add(CrashReport.from_dict(dict(record)))
        self._final = FuzzResult(
            name=str(payload.get("name", self.spec.name)),
            os_name=str(payload.get("os_name", "")),
            stats=stats, coverage=coverage, crash_db=crash_db,
            corpus_size=int(payload.get("corpus_size", 0)))
        return self._final

    def _degraded_result(self) -> FuzzResult:
        """Best-effort result for a lost worker, from the last barrier
        mirror: the frontier it had reported is real coverage; the
        epoch that died is discarded wholesale."""
        stats = FuzzStats(
            programs_executed=self._summary.get("execs", 0),
            unique_crashes=self._summary.get("crashes", 0),
            restorations=self._summary.get("restores", 0),
            snapshot_restores=self._summary.get(
                "snapshot_restores", 0),
            snapshot_fallbacks=self._summary.get(
                "snapshot_fallbacks", 0))
        if self._edges:
            stats.record_point(self._cycles, len(self._edges))
        coverage = CoverageMap()
        coverage.add_edges(self._edges)
        return FuzzResult(name=self.spec.name, os_name="",
                          stats=stats, coverage=coverage,
                          crash_db=CrashDb(), corpus_size=0)

    def close(self) -> None:
        if self._io is not None and not self._lost_reason:
            try:
                self._io.send("exit", {})
            except WorkerTransportError:
                pass
        self._close_transport()


def _worker_env() -> Dict[str, str]:
    """Child environment with this repro package importable."""
    import repro
    src_root = os.path.dirname(os.path.dirname(
        os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    if src_root not in existing.split(os.pathsep):
        env["PYTHONPATH"] = (src_root + os.pathsep + existing
                             if existing else src_root)
    return env


class ProcessHandle(_RemoteHandle):
    """One worker core in a child process, frames over stdin/stdout
    pipes."""

    def __init__(self, index: int, spec: WorkerSpec):
        super().__init__(index, spec)
        self._proc: Optional[subprocess.Popen] = None

    def _open_transport(self) -> None:
        try:
            self._proc = subprocess.Popen(
                [sys.executable, "-m", "repro.farm.procworker"],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                env=_worker_env())
        except OSError as exc:
            raise WorkerLost(self.index,
                             f"spawn failed: {exc}") from exc
        self._io = PipeFrameIO(self._proc.stdout, self._proc.stdin)

    def _close_transport(self) -> None:
        super()._close_transport()
        if self._proc is not None:
            try:
                self._proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()


def build_worker_handles(backend: str, spec_template: WorkerSpec,
                         seeds: List[int], worker_budget: int,
                         campaign_seed: int) -> List[_RemoteHandle]:
    """One handle per worker seed, each spec derived from the template."""
    handle = ProcessHandle if backend == "process" else _RemoteHandle
    return [handle(index, replace(
        spec_template, index=index, seed=seed,
        budget_cycles=worker_budget, name=f"eof-w{index}",
        campaign_seed=campaign_seed))
        for index, seed in enumerate(seeds)]
