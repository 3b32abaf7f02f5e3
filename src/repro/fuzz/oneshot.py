"""One-shot program execution: run a hand-written API sequence on a
fresh board and report what happened.

This is the "reproducer" path: Table 2's bugs, the Figure 6 case study,
the examples and the regression tests all drive known call sequences and
inspect the resulting halt, crash report and UART output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

from repro.agent.protocol import (
    ArgData,
    ArgImm,
    ArgRef,
    Call,
    TestProgram,
    serialize_program,
)
from repro.ddi.session import DebugSession, open_session
from repro.errors import DebugLinkTimeout
from repro.link.codec import decode_u32
from repro.firmware.builder import BuildInfo, build_firmware
from repro.fuzz.crash import CrashReport
from repro.fuzz.monitors import ExceptionMonitor, LogMonitor
from repro.fuzz.targets import TargetConfig
from repro.hw.machine import HaltEvent, HaltReason

# ("ref", 2) marks a handle produced by call #2; ints and bytes are
# immediates/buffers.
ArgSpec = Union[int, bytes, Tuple[str, int]]


@dataclass
class Outcome:
    """What one program execution produced."""

    completed: bool
    halts: List[HaltEvent] = field(default_factory=list)
    crash: Optional[CrashReport] = None
    log_crashes: List[CrashReport] = field(default_factory=list)
    uart: List[str] = field(default_factory=list)
    link_timeout: bool = False
    session: Optional[DebugSession] = None

    @property
    def crashed(self) -> bool:
        """Did either monitor flag this execution?"""
        return self.crash is not None or bool(self.log_crashes)


def build_program(build: BuildInfo,
                  calls: Sequence[Tuple[str, Sequence[ArgSpec]]]) -> TestProgram:
    """Assemble a program from (api name, args) pairs."""
    assembled: List[Call] = []
    for name, args in calls:
        api_id = build.api_order.index(name)
        wire_args = []
        for arg in args:
            if isinstance(arg, bytes):
                wire_args.append(ArgData(arg))
            elif isinstance(arg, tuple) and arg and arg[0] == "ref":
                wire_args.append(ArgRef(arg[1]))
            else:
                wire_args.append(ArgImm(int(arg)))
        assembled.append(Call(api_id=api_id, args=tuple(wire_args)))
    return TestProgram(calls=assembled)


def execute_once(target: TargetConfig,
                 calls: Sequence[Tuple[str, Sequence[ArgSpec]]],
                 session: Optional[DebugSession] = None,
                 build: Optional[BuildInfo] = None,
                 max_resumes: int = 64) -> Outcome:
    """Flash (or reuse) a target, run one program, watch the monitors."""
    if session is None:
        build = build or build_firmware(target.build_config())
        session = open_session(build)
    else:
        build = session.build
    board = session.board
    if board.boot_failed:
        raise RuntimeError("target did not boot")
    kernel = board.runtime.kernel
    link = session.link
    for symbol in ("executor_main", "read_prog", "execute_one",
                   "_kcmp_buf_full"):
        link.break_insert(build.address_of(symbol), label="agent-sync")
    exc_monitor = ExceptionMonitor(session, build.config.os_name,
                                   [kernel.EXCEPTION_SYMBOL])
    exc_monitor.arm()
    log_monitor = LogMonitor(build.config.os_name)
    session.consume_boot_chatter()

    program = build_program(build, calls)
    raw = serialize_program(program)
    layout = build.ram_layout
    with link.batch():
        link.write_u32(layout.input_buf_addr, len(raw))
        link.write_memory(layout.input_buf_addr + 4, raw)

    outcome = Outcome(completed=False, session=session)
    for _ in range(max_resumes):
        try:
            event = link.exec_continue()
        except DebugLinkTimeout:
            outcome.link_timeout = True
            break
        outcome.halts.append(event)
        if event.reason == HaltReason.COV_FULL:
            link.write_u32(layout.cov_buf_addr, 0)
            continue
        if event.reason == HaltReason.EXCEPTION and \
                exc_monitor.matches(event):
            outcome.crash = exc_monitor.capture(event)
            break
        if event.reason == HaltReason.STALL:
            break
        if event.symbol == "executor_main" and \
                event.reason == HaltReason.BREAKPOINT and \
                len(outcome.halts) >= 2:
            # Consult the agent's status block: 3 = DONE, 5 = BAD_PROG.
            state = decode_u32(link.read_memory(layout.status_addr + 4, 4))
            outcome.completed = (state == 3)
            break
    outcome.uart = session.drain_uart()
    outcome.log_crashes = log_monitor.scan(outcome.uart)
    return outcome
