"""Shared driver for the byte-buffer baselines (GDBFuzz / SHIFT / Gustave).

These tools are AFL-shaped: the unit of fuzzing is an opaque byte buffer,
mutated by havoc operators and judged interesting by whatever feedback
channel the tool has (rotating hardware breakpoints, semihosted SanCov,
TCG tracing).  Subclasses define how a buffer becomes a test program and
what feedback means; the base class owns the corpus, the debug-link
plumbing, liveness recovery, and the ground-truth coverage meter used
for reporting.
"""

from __future__ import annotations

from typing import List, Optional

from repro.agent.protocol import TestProgram, serialize_program
from repro.ddi.session import DebugSession, open_session
from repro.errors import DebugLinkTimeout, ProtocolError
from repro.firmware.builder import BuildInfo
from repro.fuzz.crash import CrashDb, CrashReport, KIND_HANG, KIND_PANIC
from repro.fuzz.engine import FuzzResult
from repro.fuzz.feedback import CoverageMap
from repro.fuzz.restore import StateRestoration
from repro.fuzz.rng import FuzzRng
from repro.fuzz.stats import FuzzStats
from repro.fuzz.watchdog import LivenessWatchdog
from repro.hw.machine import HaltEvent, HaltReason
from repro.instrument.sancov import decode_coverage_buffer

SEED_BUFFERS = (
    b"GET / HTTP/1.1\r\n\r\n",
    b"{}",
    b"[1]",
    b"A" * 16,
    b"\x00" * 8,
)


class BufferFuzzerBase:
    """AFL-style loop over one flashed target."""

    NAME = "buffer-fuzzer"

    def __init__(self, build: BuildInfo, seed: int = 0,
                 budget_cycles: int = 2_000_000,
                 max_iterations: int = 1_000_000,
                 max_buffer: int = 512):
        self.build = build
        self.rng = FuzzRng(seed)
        self.budget_cycles = budget_cycles
        self.max_iterations = max_iterations
        self.max_buffer = max_buffer
        self.stats = FuzzStats()
        self.crash_db = CrashDb()
        # Ground-truth meter: what the instrumented target actually ran.
        self.coverage = CoverageMap()
        self.corpus: List[bytes] = list(SEED_BUFFERS)
        self.session: Optional[DebugSession] = None
        self.watchdog: Optional[LivenessWatchdog] = None
        self.restoration: Optional[StateRestoration] = None

    # How the guest harness frames one fuzz buffer: tools that keep the
    # target alive across inputs effectively deliver input *sequences*,
    # so buffers beyond this size are split into consecutive calls.
    CHUNK = 192

    # -- subclass hooks -----------------------------------------------------

    def make_program(self, data: bytes) -> TestProgram:
        """Turn a raw buffer into a test program."""
        raise NotImplementedError

    def chunk_buffer(self, data: bytes):
        """Split a buffer into per-call chunks (at most 4)."""
        if not data:
            return [b""]
        chunks = [data[i:i + self.CHUNK]
                  for i in range(0, min(len(data), 4 * self.CHUNK),
                                 self.CHUNK)]
        return chunks or [b""]

    def arm_feedback(self) -> None:
        """Install whatever feedback channel the tool uses (after boot)."""

    def feedback_interesting(self, event_bp_hits: List[int],
                             new_truth_edges: int) -> bool:
        """Did this input produce feedback the tool can actually see?"""
        raise NotImplementedError

    def per_exec_overhead_cycles(self, raw_len: int) -> int:
        """Extra target cycles the tool's instrumentation costs per exec."""
        return 0

    # -- driver ------------------------------------------------------------------

    def run(self) -> FuzzResult:
        """Fuzz to the budget."""
        self.session = open_session(self.build)
        board = self.session.board
        if board.boot_failed:
            raise RuntimeError("target never booted")
        self.watchdog = LivenessWatchdog(self.session)
        self.restoration = StateRestoration(self.session)
        self.arm_feedback()
        self.session.consume_boot_chatter()
        iteration = 0
        while (board.machine.cycles < self.budget_cycles
               and iteration < self.max_iterations):
            iteration += 1
            data = self._next_buffer()
            self._execute_buffer(data)
            self.stats.record_point(board.machine.cycles,
                                    self.coverage.edge_count)
        self.stats.record_point(board.machine.cycles,
                                self.coverage.edge_count)
        self.stats.link_transactions = self.session.link.transactions
        self.stats.link_bytes = self.session.link.bytes_moved
        return FuzzResult(name=self.NAME, os_name=self.build.config.os_name,
                          stats=self.stats, coverage=self.coverage,
                          crash_db=self.crash_db,
                          corpus_size=len(self.corpus))

    def _next_buffer(self) -> bytes:
        if self.corpus and self.rng.chance(0.8):
            base = self.rng.pick(self.corpus)
            return self.rng.mutate_bytes(base, self.max_buffer)
        return self.rng.random_bytes(self.max_buffer)

    def _execute_buffer(self, data: bytes) -> None:
        program = self.make_program(data)
        try:
            raw = serialize_program(program)
        except ProtocolError:
            self.stats.rejected_programs += 1
            return
        layout = self.build.ram_layout
        link = self.session.link
        try:
            link.write_u32(layout.input_buf_addr, len(raw))
            link.write_memory(layout.input_buf_addr + 4, raw)
            bp_hits, ok = self._drive()
        except DebugLinkTimeout:
            self.stats.link_timeouts += 1
            self._salvage()
            return
        self.session.board.machine.tick(
            self.per_exec_overhead_cycles(len(raw)))
        new_truth = self._drain_truth_coverage()
        self.session.drain_uart()
        if ok:
            self.stats.programs_executed += 1
            self.stats.calls_executed += len(program.calls)
        if self.feedback_interesting(bp_hits, new_truth) and \
                len(data) <= self.max_buffer:
            self.corpus.append(data)

    def _drive(self):
        link = self.session.link
        bp_hits: List[int] = []
        for _ in range(2):  # read_prog, execute_one
            event = link.exec_continue()
            bp_hits.extend(event.bp_hits)
            if self._abnormal(event):
                return bp_hits, False
            if event.symbol == "executor_main":
                self.stats.rejected_programs += 1
                return bp_hits, False
        while True:
            event = link.exec_continue()
            bp_hits.extend(event.bp_hits)
            if event.reason == HaltReason.COV_FULL:
                self.stats.cov_full_traps += 1
                self._drain_truth_coverage()
                continue
            if event.symbol == "executor_main" and \
                    event.reason == HaltReason.BREAKPOINT:
                return bp_hits, True
            if self._abnormal(event):
                return bp_hits, False

    def _abnormal(self, event: HaltEvent) -> bool:
        if event.reason == HaltReason.EXCEPTION:
            self._record_crash(KIND_PANIC, event.detail, "exception",
                               [f.symbol for f in event.backtrace])
            self._recover()
            return True
        if event.reason == HaltReason.STALL:
            self.stats.stalls += 1
            self._record_crash(KIND_HANG, event.detail or "target hang",
                               "timeout", [])
            self._salvage()
            return True
        return False

    def _record_crash(self, kind: str, cause: str, monitor: str,
                      backtrace: List[str]) -> None:
        report = CrashReport(os_name=self.build.config.os_name, kind=kind,
                             cause=cause, monitor=monitor,
                             backtrace=backtrace)
        self.stats.crashes_observed += 1
        if self.crash_db.add(report):
            self.stats.unique_crashes += 1

    def _drain_truth_coverage(self) -> int:
        """The engine's delta drain: 0 new edges when the tracer's
        generation word says nothing landed since the last drain."""
        layout = self.build.ram_layout
        try:
            raw = self.session.link.cov_drain(
                layout.cov_buf_addr, (layout.cov_buf_size - 4) // 4,
                gen_addr=layout.cov_gen_addr)
        except DebugLinkTimeout:
            return 0
        if raw is None:
            return 0
        return self.coverage.add_edges(
            decode_coverage_buffer(raw, obs=getattr(self, "obs", None)))

    def _recover(self) -> None:
        self.session.reboot()
        self.stats.reboots += 1
        if self.session.board.boot_failed:
            self._salvage()
            return
        self.arm_feedback()
        self.watchdog.reset()
        self.session.drain_uart()

    def _salvage(self) -> None:
        self.restoration.restore()
        self.stats.restorations += 1
        self.arm_feedback()
        self.watchdog.reset()
        self.session.drain_uart()
