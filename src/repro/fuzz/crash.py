"""Crash reports and deduplication.

A report carries everything Figure 6 shows: the detecting monitor, the
cause text extracted from the target's crash-info block, the symbolized
backtrace unwound over the debug link, the UART tail, and the offending
program.  Dedup is by (kind, top frames, cause prefix) — the classic
stack-hash signature.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.agent.protocol import TestProgram
from repro.errors import ProtocolError

KIND_PANIC = "kernel-panic"
KIND_ASSERT = "kernel-assertion"
KIND_FAULT = "hard-fault"
KIND_HANG = "hang"


@dataclass
class CrashReport:
    """One observed failure."""

    os_name: str
    kind: str
    cause: str
    detail: str = ""
    monitor: str = ""              # "exception" | "log" | "timeout"
    backtrace: List[str] = field(default_factory=list)
    uart_tail: List[str] = field(default_factory=list)
    program: Optional[TestProgram] = None
    cycles: int = 0

    def signature(self) -> str:
        """Dedup key: stack hash when we have frames, else the cause text
        with every number/hex literal normalised away."""
        import re
        frames = ",".join(self.backtrace[:3])
        cause_head = re.sub(r"(0x[0-9a-fA-F]+|\d+)", "N",
                            self.cause)[:80].strip()
        if frames:
            return f"{self.os_name}|{self.kind}|{frames}"
        return f"{self.os_name}|{self.kind}|{cause_head}"

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly persistence record (``repro.db``).

        The offending program is embedded as the hex of its wire
        encoding when it encodes; reports whose programs cannot be
        serialized persist everything else (triage survives even when
        the reproducer does not).
        """
        data: Dict[str, object] = {
            "os_name": self.os_name, "kind": self.kind,
            "cause": self.cause, "detail": self.detail,
            "monitor": self.monitor,
            "backtrace": list(self.backtrace),
            "uart_tail": list(self.uart_tail),
            "cycles": self.cycles,
        }
        if self.program is not None:
            from repro.agent.protocol import serialize_program
            try:
                data["program"] = serialize_program(self.program).hex()
            except ProtocolError:
                pass
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "CrashReport":
        """Inverse of :meth:`to_dict`; an undecodable embedded program
        degrades to ``program=None`` rather than failing the load."""
        program = None
        raw = data.get("program")
        if raw:
            from repro.agent.protocol import deserialize_program
            try:
                program = deserialize_program(bytes.fromhex(str(raw)))
            except (ProtocolError, ValueError):
                program = None
        return cls(
            os_name=str(data.get("os_name", "")),
            kind=str(data.get("kind", "")),
            cause=str(data.get("cause", "")),
            detail=str(data.get("detail", "")),
            monitor=str(data.get("monitor", "")),
            backtrace=[str(frame) for frame in data.get("backtrace", [])],
            uart_tail=[str(line) for line in data.get("uart_tail", [])],
            program=program,
            cycles=int(data.get("cycles", 0)))

    def render(self) -> str:
        """Human-readable report (the Figure 6 shape)."""
        lines = [f"[{self.os_name}] {self.kind}: {self.cause}"]
        if self.detail:
            lines.append(f"  detail : {self.detail}")
        lines.append(f"  monitor: {self.monitor}")
        for level, frame in enumerate(self.backtrace, start=1):
            lines.append(f"  Level {level}: {frame}")
        for uart_line in self.uart_tail[-4:]:
            lines.append(f"  uart   | {uart_line}")
        return "\n".join(lines)


class CrashDb:
    """Deduplicated crash collection."""

    def __init__(self) -> None:
        self.by_signature: Dict[str, CrashReport] = {}
        self.counts: Dict[str, int] = {}
        self.total_events = 0

    def add(self, report: CrashReport) -> bool:
        """Record an event; True if it is a *new* (unique) crash."""
        self.total_events += 1
        signature = report.signature()
        self.counts[signature] = self.counts.get(signature, 0) + 1
        if signature in self.by_signature:
            return False
        self.by_signature[signature] = report
        return True

    def unique_crashes(self) -> List[CrashReport]:
        """All distinct crashes, first-seen order."""
        return list(self.by_signature.values())

    def __len__(self) -> int:
        return len(self.by_signature)
