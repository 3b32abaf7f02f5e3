"""The on-target execution agent.

Implements the Figure 4 loop as a host-driven state machine: the board's
``resume`` advances the agent one phase per continue, halting at the
breakpoint-sync points (``executor_main`` → ``read_prog`` →
``execute_one`` → back), trapping at ``_kcmp_buf_full`` when the coverage
buffer fills, and entering ``handle_exception`` → the OS's fatal-error
symbol when a test case kills the kernel.
"""

from __future__ import annotations

import enum
import struct
from typing import List, Optional

from repro.errors import (
    BusFault,
    ExecutionStall,
    KernelAssertion,
    KernelPanic,
    ProtocolError,
    TargetSignal,
)
from repro.hw.board import Board, TargetRuntime
from repro.hw.machine import HaltEvent, HaltReason, StackFrame
from repro.agent.protocol import TestProgram, ArgImm, ArgRef, ArgData, \
    deserialize_program
from repro.oses.common.kernel import EmbeddedKernel

AGENT_STATUS_MAGIC = 0x53544154  # "STAT"

STATUS_IDLE = 0
STATUS_PROG_READY = 1
STATUS_EXECUTING = 2
STATUS_DONE = 3
STATUS_CRASHED = 4
STATUS_BAD_PROG = 5
STATUS_STALLED = 6


class AgentPhase(enum.Enum):
    """Where the agent is in its loop."""

    WAIT_PROG = "wait-prog"      # halted at executor_main, needs input
    PROG_READY = "prog-ready"    # halted at read_prog, program decoded
    EXECUTING = "executing"      # halted at execute_one or _kcmp_buf_full
    CRASHED = "crashed"          # dead in the exception handler
    STALLED = "stalled"          # degraded state: wedged, not a crash


class AgentRuntime(TargetRuntime):
    """Target runtime = one kernel + the execution agent driving it."""

    def __init__(self, board: Board, kernel: EmbeddedKernel, layout,
                 addresses) -> None:
        self.board = board
        self.kernel = kernel
        self.ctx = kernel.ctx
        self.layout = layout
        self.addresses = addresses
        self.phase = AgentPhase.WAIT_PROG
        self.program: Optional[TestProgram] = None
        self.call_idx = 0
        self.results: List[int] = []
        self.programs_executed = 0
        self.calls_executed = 0

    # -- boot -------------------------------------------------------------------

    def boot(self) -> bool:
        """Bring the kernel up; False means the boot itself crashed."""
        try:
            self.kernel.boot()
        except TargetSignal:
            return False
        finally:
            self.ctx.tracer.land()
        self._write_status(STATUS_IDLE)
        self._park_at("executor_main")
        return True

    # -- helpers -----------------------------------------------------------------

    def _addr(self, symbol: str) -> int:
        return self.addresses.get(symbol, 0)

    def _park_at(self, symbol: str) -> None:
        self.board.machine.pc = self._addr(symbol)

    def _take_bp_hits(self) -> List[int]:
        hits = list(self.ctx.bp_hits)
        self.ctx.bp_hits.clear()
        return hits

    def _halt(self, reason: HaltReason, symbol: str,
              detail: str = "") -> HaltEvent:
        self._park_at(symbol)
        return HaltEvent(reason=reason, pc=self._addr(symbol), symbol=symbol,
                         detail=detail, backtrace=self.board.machine.backtrace(),
                         bp_hits=self._take_bp_hits())

    def _write_status(self, state: int, last_rv: int = 0) -> None:
        base = self.layout.status_addr
        self.board.ram.write(base, struct.pack(
            "<IIIq", AGENT_STATUS_MAGIC, state, self.calls_executed,
            last_rv))

    # -- the state machine ---------------------------------------------------------

    def step(self) -> HaltEvent:
        """One ``-exec-continue`` worth of progress.

        The tracer takes its write index from RAM as the core resumes
        and lands its records as the core halts, however the step ends.
        """
        tracer = self.ctx.tracer
        tracer.resume()
        try:
            machine = self.board.machine
            machine.tick(50)  # loop plumbing
            if self.phase == AgentPhase.WAIT_PROG:
                return self._step_read_prog()
            if self.phase == AgentPhase.PROG_READY:
                return self._step_arm_execution()
            if self.phase == AgentPhase.EXECUTING:
                return self._step_execute()
            # CRASHED / STALLED: the core never makes progress again.
            machine.wedge(f"agent {self.phase.value}")
            return HaltEvent(reason=HaltReason.STALL, pc=machine.pc,
                             detail=machine.wedge_detail)
        finally:
            tracer.land()

    def _step_read_prog(self) -> HaltEvent:
        self._park_at("read_prog")
        base = self.layout.input_buf_addr
        length = self.board.ram.read_u32(base)
        self.board.machine.tick(10 + length // 8)  # deserialization cost
        max_len = self.layout.input_buf_size - 4
        if length == 0 or length > max_len:
            self.program = None
            self._write_status(STATUS_BAD_PROG)
            self.phase = AgentPhase.PROG_READY
            return self._halt(HaltReason.BREAKPOINT, "read_prog",
                              detail="no/oversized input")
        raw = self.board.ram.read(base + 4, length)
        try:
            program = deserialize_program(raw)
        except ProtocolError as exc:
            self.program = None
            self._write_status(STATUS_BAD_PROG)
            self.phase = AgentPhase.PROG_READY
            return self._halt(HaltReason.BREAKPOINT, "read_prog",
                              detail=f"protocol error: {exc}")
        n_apis = len(self.kernel.api_table())
        for call in program.calls:
            if call.api_id >= n_apis:
                self.program = None
                self._write_status(STATUS_BAD_PROG)
                self.phase = AgentPhase.PROG_READY
                return self._halt(HaltReason.BREAKPOINT, "read_prog",
                                  detail=f"unknown api id {call.api_id}")
        self.program = program
        self._write_status(STATUS_PROG_READY)
        self.phase = AgentPhase.PROG_READY
        return self._halt(HaltReason.BREAKPOINT, "read_prog")

    def _step_arm_execution(self) -> HaltEvent:
        if self.program is None:
            # Bad program: skip execution, loop back for the next one.
            self.phase = AgentPhase.WAIT_PROG
            return self._halt(HaltReason.BREAKPOINT, "executor_main",
                              detail="program rejected")
        self.call_idx = 0
        self.results = []
        self.calls_executed = 0
        self.ctx.tracer.reset_run_state()
        self.kernel.on_testcase_start()
        self._write_status(STATUS_EXECUTING)
        self.phase = AgentPhase.EXECUTING
        return self._halt(HaltReason.BREAKPOINT, "execute_one")

    def _step_execute(self) -> HaltEvent:
        tracer = self.ctx.tracer
        if tracer.trap_pending:
            # Resumed from a cov-full trap: the host has drained the
            # buffer; reset the write index and continue where we left off.
            tracer.clear()
        assert self.program is not None
        while self.call_idx < len(self.program.calls):
            call = self.program.calls[self.call_idx]
            self.board.machine.tick(20)  # dispatch cost
            # Coverage is collected per call, KCOV-style (Syzkaller
            # semantics): edges chain within one API invocation.
            tracer.reset_run_state()
            try:
                args = self._resolve_args(call)
                rv = self.kernel.invoke(call.api_id, args)
                self.results.append(rv)
                self.call_idx += 1
                self.calls_executed += 1
                self.kernel.idle_tick()
            except KernelAssertion as sig:
                # Assert text already went out over UART; the system hangs
                # (denial of service) — log-monitor territory.
                self._write_status(STATUS_CRASHED)
                self.phase = AgentPhase.CRASHED
                self.board.machine.wedge(f"assertion hang: {sig.expr}")
                return HaltEvent(reason=HaltReason.STALL,
                                 pc=self.board.machine.pc,
                                 detail=str(sig),
                                 backtrace=self.board.machine.backtrace(),
                                 bp_hits=self._take_bp_hits())
            except (KernelPanic, BusFault) as sig:
                return self._enter_exception(sig)
            except ExecutionStall as sig:
                self._write_status(STATUS_STALLED)
                self.phase = AgentPhase.STALLED
                self.board.machine.wedge(sig.reason)
                return HaltEvent(reason=HaltReason.STALL,
                                 pc=self.board.machine.pc,
                                 detail=sig.reason,
                                 bp_hits=self._take_bp_hits())
            if tracer.trap_pending:
                return self._halt(HaltReason.COV_FULL, "_kcmp_buf_full",
                                  detail="coverage buffer full")
        self.programs_executed += 1
        last_rv = self.results[-1] if self.results else 0
        self._write_status(STATUS_DONE, last_rv)
        self.phase = AgentPhase.WAIT_PROG
        return self._halt(HaltReason.BREAKPOINT, "executor_main")

    def _resolve_args(self, call) -> List:
        resolved: List = []
        for arg in call.args:
            if isinstance(arg, ArgImm):
                resolved.append(arg.value)
            elif isinstance(arg, ArgRef):
                resolved.append(self.results[arg.index]
                                if arg.index < len(self.results) else -1)
            elif isinstance(arg, ArgData):
                resolved.append(arg.data)
            else:  # pragma: no cover - protocol guarantees exhaustiveness
                resolved.append(0)
        return resolved

    def _enter_exception(self, signal: TargetSignal) -> HaltEvent:
        """Fatal path: route into the OS's exception symbol (Figure 4's
        ``handle_exception``) and stop there if the host broke on it."""
        self._write_status(STATUS_CRASHED)
        self.phase = AgentPhase.CRASHED
        machine = self.board.machine
        handler_symbol = self.kernel.EXCEPTION_SYMBOL
        handler_addr = self._addr(handler_symbol)
        try:
            self.kernel.handle_fatal(signal)
        except TargetSignal:
            pass  # a broken handler must still leave us in a defined state
        # The handler "never returns": freeze its frame on the crash stack.
        machine.push_frame(StackFrame(symbol=handler_symbol,
                                      address=handler_addr, module="kernel"))
        if machine.breakpoint_at(handler_addr):
            return HaltEvent(reason=HaltReason.EXCEPTION, pc=handler_addr,
                             symbol=handler_symbol, detail=str(signal),
                             backtrace=machine.backtrace(),
                             bp_hits=self._take_bp_hits())
        machine.wedge(f"dead in {handler_symbol}")
        return HaltEvent(reason=HaltReason.STALL, pc=handler_addr,
                         detail=str(signal),
                         backtrace=machine.backtrace(),
                         bp_hits=self._take_bp_hits())
