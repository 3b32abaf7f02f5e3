"""The two bug monitors of §4.5.2.

* :class:`LogMonitor` — scans the host-captured UART stream against
  regex patterns (assertion lines, panic banners).  This is what catches
  assertion bugs, which hang the target instead of entering the
  exception handler.
* :class:`ExceptionMonitor` — arms breakpoints on the OS-specific fatal
  entry points (``panic_handler`` / ``common_exception`` / ...) and, when
  one fires, extracts the crash-info block and a symbolized backtrace
  over the debug link.
"""

from __future__ import annotations

import re
from typing import List, Sequence

from repro.ddi.session import DebugSession
from repro.errors import DebugLinkError, DebugLinkTimeout
from repro.fuzz.crash import (
    CrashReport,
    KIND_ASSERT,
    KIND_FAULT,
    KIND_PANIC,
)
from repro.hw.machine import HaltEvent
from repro.obs import NULL_OBS
from repro.oses.common.context import (
    CAUSE_ASSERT,
    CAUSE_BUS_FAULT,
    CRASH_MAGIC,
)

# Patterns cover the diverse error vocabularies of the five kernels.
DEFAULT_LOG_PATTERNS: Sequence[str] = (
    r"assertion failed",
    r"ASSERTION FAIL",
    r"Assertion failed",
    r"configASSERT failed",
    r"POK assert",
    r"PANIC",
    r"FATAL",
    r"BUG: unexpected stop",
    r"hard fault",
    r"stack corruption",
    r"Oops",
)


class LogMonitor:
    """Regex scanning over the UART stream."""

    def __init__(self, os_name: str,
                 patterns: Sequence[str] = DEFAULT_LOG_PATTERNS,
                 obs=NULL_OBS):
        self.os_name = os_name
        self.obs = obs
        self.patterns = [re.compile(p) for p in patterns]
        self.matched_lines = 0

    def scan(self, lines: Sequence[str]) -> List[CrashReport]:
        """Crash events found in a batch of fresh UART lines."""
        reports: List[CrashReport] = []
        for line in lines:
            for pattern in self.patterns:
                if pattern.search(line):
                    self.matched_lines += 1
                    kind = (KIND_ASSERT if "ssert" in line.lower()
                            else KIND_PANIC)
                    reports.append(CrashReport(
                        os_name=self.os_name, kind=kind, cause=line.strip(),
                        monitor="log"))
                    if self.obs.enabled:
                        self.obs.emit("monitor.detect", monitor="log",
                                      kind=kind, cause=line.strip())
                    break
        return reports


class ExceptionMonitor:
    """Breakpoints on the OS's fatal-error entry points."""

    def __init__(self, session: DebugSession, os_name: str,
                 exception_symbols: Sequence[str], obs=NULL_OBS):
        self.session = session
        self.os_name = os_name
        self.obs = obs
        self.exception_symbols = list(exception_symbols)
        self._armed = False

    def arm(self) -> None:
        """Insert breakpoints at every exception symbol (once)."""
        if self._armed:
            return
        link = self.session.link
        for symbol in self.exception_symbols:
            link.break_insert(self.session.build.address_of(symbol),
                              label="exception-monitor")
        self._armed = True

    def matches(self, event: HaltEvent) -> bool:
        """Did this halt stop at one of our exception symbols?"""
        return event.symbol in self.exception_symbols

    def capture(self, event: HaltEvent) -> CrashReport:
        """Build a full report from an exception halt."""
        cause_code, cause_text = self._read_crash_block()
        kind = KIND_PANIC
        if cause_code == CAUSE_BUS_FAULT:
            kind = KIND_FAULT
        elif cause_code == CAUSE_ASSERT:
            kind = KIND_ASSERT
        backtrace = [frame.symbol for frame in event.backtrace]
        uart_tail = self.session.board.uart.tail(6)
        if self.obs.enabled:
            self.obs.emit("monitor.detect", monitor="exception", kind=kind,
                          cause=cause_text or event.detail,
                          symbol=event.symbol, depth=len(backtrace))
        return CrashReport(
            os_name=self.os_name, kind=kind,
            cause=cause_text or event.detail, detail=event.detail,
            monitor="exception", backtrace=backtrace, uart_tail=uart_tail,
            cycles=self.session.board.machine.cycles)

    def _read_crash_block(self) -> "tuple[int, str]":
        layout = self.session.build.ram_layout
        link = self.session.link
        try:
            raw = link.read_memory(layout.crash_addr, 12)
        except (DebugLinkError, DebugLinkTimeout):
            return 0, ""
        magic = int.from_bytes(raw[0:4], "little")
        if magic != CRASH_MAGIC:
            return 0, ""
        cause_code = int.from_bytes(raw[4:8], "little")
        length = min(int.from_bytes(raw[8:12], "little"),
                     layout.crash_size - 12)
        if length <= 0:
            return cause_code, ""
        text = link.read_memory(layout.crash_addr + 12, length)
        return cause_code, text.decode("utf-8", "replace")
