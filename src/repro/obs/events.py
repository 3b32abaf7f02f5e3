"""Structured run events: a tiny zero-dependency event bus.

Every event carries the target's virtual-cycle timestamp (the same clock
Figure 7's x-axis uses), the host wall-clock time, and a run id, plus a
free-form field dict.  Sinks are pluggable: a JSON-lines file sink for
run artifacts and an in-memory ring buffer for tests and the bench
harness.

The bus is *off* unless a sink is attached.  Hot paths guard on
``bus.enabled`` (or the owning :class:`repro.obs.Observability`'s
``enabled`` flag) so a disabled run never even constructs an event —
the §5.5 overhead numbers must not be perturbed by observability.
"""

from __future__ import annotations

import json
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional


@dataclass
class Event:
    """One structured occurrence in a fuzzing run."""

    name: str
    cycles: int
    wall_time: float
    run_id: str
    fields: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        """Schema-stable dict: always exactly these six keys."""
        return {"v": EVENT_SCHEMA_MAJOR, "name": self.name,
                "cycles": self.cycles, "wall_time": self.wall_time,
                "run_id": self.run_id, "fields": self.fields}


#: Major schema version stamped into every serialized event as ``"v"``.
EVENT_SCHEMA_MAJOR = 1

# The exact top-level key set every serialized event carries, in order.
EVENT_SCHEMA_KEYS = ("v", "name", "cycles", "wall_time", "run_id",
                     "fields")

#: Every event name the stack may emit.  Run-artifact consumers parse by
#: name, so the vocabulary is closed: a new emit site declares its name
#: here first, and the determinism linter (``EOF303``) rejects literal
#: ``emit("...")`` calls whose name is missing from this registry.
EVENT_REGISTRY = frozenset({
    # -- engine / run lifecycle --------------------------------------------
    "run.start", "run.end", "run.abort",
    "exec.program", "corpus.add",
    # -- coverage -----------------------------------------------------------
    "coverage.growth", "cov.truncated",
    # -- crash triage -------------------------------------------------------
    "crash.report", "monitor.detect",
    # -- debug link / liveness / recovery -----------------------------------
    "ddi.command", "link.transaction", "liveness.trip",
    "restore.reboot", "restore.reflash",
    "restore.snapshot.capture", "restore.snapshot.restore",
    "restore.snapshot.fallback", "restore.snapshot.invalidate",
    "recovery.escalate", "recovery.complete", "recovery.exhausted",
    # -- fault injection ----------------------------------------------------
    "chaos.inject",
    # -- multi-board campaigns (repro.farm) ---------------------------------
    "farm.campaign.start", "farm.campaign.end", "farm.epoch",
    "farm.crash.new", "farm.worker.done", "farm.worker.lost",
    # -- telemetry pipeline (timeseries / flight recorder) ------------------
    "ts.sample", "flight.dump",
    # -- campaign store (repro.db) ------------------------------------------
    "db.open", "db.quarantined", "db.resume", "db.interrupted",
})


class Sink:
    """Where events go.  Subclasses override :meth:`emit`."""

    def emit(self, event: Event) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Flush and release resources (idempotent)."""


class JsonlSink(Sink):
    """Append events to a JSON-lines file, one object per line."""

    def __init__(self, path):
        self.path = str(path)
        self._fh = open(self.path, "w", encoding="utf-8")
        self.lines = 0

    def emit(self, event: Event) -> None:
        payload = json.dumps(event.to_dict(), separators=(",", ":"),
                             default=str)
        self._fh.write(payload + "\n")
        self.lines += 1

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()


class RingBufferSink(Sink):
    """Keep the most recent ``capacity`` events in memory."""

    def __init__(self, capacity: int = 4096):
        self.events: Deque[Event] = deque(maxlen=capacity)
        self.total = 0

    def emit(self, event: Event) -> None:
        self.events.append(event)
        self.total += 1

    def named(self, name: str) -> List[Event]:
        """All buffered events with a given name, oldest first."""
        return [event for event in self.events if event.name == name]


class EventBus:
    """Fan events out to the attached sinks.

    ``clock`` supplies the virtual-cycle timestamp; it defaults to a
    constant 0 until the owning session binds the board's cycle counter.
    ``enabled`` flips to True on the first :meth:`attach` — emit sites
    check it before building an event, so the disabled path costs one
    attribute read.
    """

    def __init__(self, run_id: str = "",
                 clock: Optional[Callable[[], int]] = None):
        self.run_id = run_id
        self.clock: Callable[[], int] = clock or (lambda: 0)
        self.sinks: List[Sink] = []
        self.enabled = False
        self.emitted = 0

    def attach(self, sink: Sink) -> Sink:
        """Register a sink and enable the bus."""
        self.sinks.append(sink)
        self.enabled = True
        return sink

    def emit(self, name: str, **fields) -> None:
        """Stamp and deliver one event (no-op while disabled)."""
        if not self.enabled:
            return
        event = Event(name=name, cycles=self.clock(),
                      wall_time=time.time(), run_id=self.run_id,
                      fields=fields)
        self.emitted += 1
        for sink in self.sinks:
            sink.emit(event)

    def close(self) -> None:
        """Close every sink (idempotent)."""
        for sink in self.sinks:
            sink.close()
