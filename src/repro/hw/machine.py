"""The virtual CPU: program counter, cycle counter, breakpoints, frames.

The machine does not interpret an instruction set.  Instead, every kernel
and agent function in the firmware image has a synthetic address from the
image's symbol table; *entering* a function moves the program counter to
that address, costs cycles, and checks hardware breakpoints.  This gives
the host fuzzer exactly the observables the paper relies on:

* a PC it can sample over the debug link (watchdog #2 compares PCs),
* hardware breakpoints at agent sync points and exception handlers,
* a deterministic cycle clock standing in for wall time,
* a call stack it can symbolize into backtraces (Figure 6).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional


class HaltReason(enum.Enum):
    """Why the target stopped after a resume."""

    BREAKPOINT = "breakpoint"      # hit a host-set hardware breakpoint
    EXCEPTION = "exception"        # stopped inside an exception/panic handler
    COV_FULL = "cov-full"          # coverage buffer full trap (_kcmp_buf_full)
    STALL = "stall"                # PC no longer advances (infinite loop)
    FAULT = "fault"                # unrecoverable hardware fault
    POWER_OFF = "power-off"        # board is not powered


@dataclass
class StackFrame:
    """One call-stack entry, symbolized at push time."""

    symbol: str
    address: int
    module: str = ""
    source: str = ""
    line: int = 0


@dataclass
class RegisterFile:
    """A point-in-time copy of the CPU's execution state.

    This is what a debug probe reads out of the core register bank for
    snapshot-based restoration: the PC, the call stack (our stand-in for
    SP/LR plus the stacked frames) and the wedge latch.  The cycle
    counter is deliberately absent — virtual time is monotone and a
    restore must not rewind the clock — and breakpoints live in the
    debug unit, which a restore never touches.
    """

    pc: int
    frames: List[StackFrame] = field(default_factory=list)
    wedged: bool = False
    wedge_detail: str = ""


@dataclass
class HaltEvent:
    """The result of running the target until it stops.

    ``bp_hits`` batches ordinary (non-sync, non-exception) breakpoint
    addresses crossed during the run: the virtual probe auto-resumes
    through them and reports them at the next stop, which is how tools
    like GDBFuzz consume their coverage breakpoints efficiently.
    """

    reason: HaltReason
    pc: int
    symbol: str = ""
    detail: str = ""
    backtrace: List[StackFrame] = field(default_factory=list)
    bp_hits: List[int] = field(default_factory=list)


class BreakpointLimitError(Exception):
    """All hardware breakpoint slots are in use."""


class Machine:
    """CPU state shared by the board, the agent and the kernel HAL.

    ``hw_breakpoint_slots`` models the scarce hardware comparators real
    MCUs have (Cortex-M FPB typically has 4-8).  EOF needs only a handful;
    GDBFuzz's coverage strategy is *built around* this scarcity.
    """

    RESET_VECTOR = 0x0000_0000

    def __init__(self, hw_breakpoint_slots: int = 6, cycles_per_call: int = 40):
        self.hw_breakpoint_slots = hw_breakpoint_slots
        self.cycles_per_call = cycles_per_call
        self.pc: int = self.RESET_VECTOR
        self.cycles: int = 0
        self.powered: bool = False
        self.wedged: bool = False
        self.wedge_detail: str = ""
        self._breakpoints: Dict[int, str] = {}
        self._frames: List[StackFrame] = []

    # -- power / reset ------------------------------------------------------

    def power_on(self) -> None:
        """Apply power; PC parks at the reset vector."""
        self.powered = True
        self.reset()

    def power_off(self) -> None:
        """Cut power."""
        self.powered = False

    def reset(self) -> None:
        """Warm reset: clear execution state; breakpoints survive (they
        live in the debug unit, as on real silicon with a connected probe).
        """
        self.pc = self.RESET_VECTOR
        self.wedged = False
        self.wedge_detail = ""
        self._frames = []

    # -- register-file snapshot (repro.fuzz.snapshot) ------------------------

    def capture_registers(self) -> RegisterFile:
        """Read the core's execution state out through the debug unit."""
        return RegisterFile(pc=self.pc, frames=list(self._frames),
                            wedged=self.wedged,
                            wedge_detail=self.wedge_detail)

    def restore_registers(self, registers: RegisterFile) -> None:
        """Write a captured register file back into the core.

        Cycles and breakpoints are untouched: time never rewinds, and
        breakpoint comparators live in the debug unit, not the core.
        """
        self.pc = registers.pc
        self._frames = list(registers.frames)
        self.wedged = registers.wedged
        self.wedge_detail = registers.wedge_detail

    # -- time ---------------------------------------------------------------

    def tick(self, cycles: int) -> None:
        """Advance the cycle counter."""
        if cycles < 0:
            raise ValueError("cannot tick backwards")
        self.cycles += cycles

    # -- breakpoints ---------------------------------------------------------

    def set_breakpoint(self, address: int, label: str = "") -> None:
        """Arm a hardware breakpoint; raises when all slots are used."""
        if address in self._breakpoints:
            self._breakpoints[address] = label or self._breakpoints[address]
            return
        if len(self._breakpoints) >= self.hw_breakpoint_slots:
            raise BreakpointLimitError(
                f"all {self.hw_breakpoint_slots} hardware breakpoints in use")
        self._breakpoints[address] = label

    def clear_breakpoint(self, address: int) -> None:
        """Disarm a breakpoint; clearing an unset address is a no-op."""
        self._breakpoints.pop(address, None)

    def clear_all_breakpoints(self) -> None:
        """Disarm every breakpoint."""
        self._breakpoints.clear()

    def breakpoint_at(self, address: int) -> bool:
        """Is a breakpoint armed at ``address``?"""
        return address in self._breakpoints

    def breakpoint_count(self) -> int:
        """Number of armed breakpoints (cheap hot-path check)."""
        return len(self._breakpoints)

    # -- call frames ----------------------------------------------------------

    def push_frame(self, frame: StackFrame) -> None:
        """Enter a function: move PC, charge cycles, record the frame."""
        self.pc = frame.address
        self.tick(self.cycles_per_call)
        self._frames.append(frame)

    def pop_frame(self) -> Optional[StackFrame]:
        """Leave the current function; PC returns to the caller."""
        if not self._frames:
            return None
        frame = self._frames.pop()
        if self._frames:
            self.pc = self._frames[-1].address
        return frame

    def backtrace(self) -> List[StackFrame]:
        """Innermost-first copy of the call stack (Figure 6 ordering)."""
        return list(reversed(self._frames))

    def stack_depth(self) -> int:
        """Current call depth."""
        return len(self._frames)

    # -- wedging ---------------------------------------------------------------

    def wedge(self, detail: str) -> None:
        """Park the CPU: the PC will never advance again until reset.

        Models both a tight polling loop and a dead exception handler;
        either way, resume-after-resume the PC stays put, which is what
        the PC-stall watchdog keys on.
        """
        self.wedged = True
        self.wedge_detail = detail
