"""The kernel's view of the hardware (HAL context).

Kernel code never touches the :class:`~repro.hw.board.Board` directly;
everything goes through this context, which:

* maintains machine stack frames (program counter, backtraces),
* fires coverage sites into the SanCov tracer,
* prints to the UART,
* raises/records panics, assertion failures and stalls,
* writes the crash-info block the host's exception monitor reads.

This is the layer that makes the kernels "run on" the virtual MCU.
"""

from __future__ import annotations

import contextlib
from typing import Dict, List, Optional, Tuple

from repro.errors import (
    ExecutionStall,
    KernelAssertion,
    KernelPanic,
    TargetSignal,
)
from repro.hw.board import Board
from repro.hw.machine import StackFrame
from repro.instrument.sancov import SancovTracer
from repro.instrument.sites import SiteInfo

CRASH_MAGIC = 0xDEAD_C0DE

# Crash cause codes written into the crash-info block.
CAUSE_PANIC = 1
CAUSE_BUS_FAULT = 2
CAUSE_ASSERT = 3

KPRINTF_CYCLES = 25


class KernelContext:
    """Hardware-abstraction context handed to a kernel at boot."""

    def __init__(self, board: Board, addresses: Dict[str, int],
                 tracer: SancovTracer, layout) -> None:
        self.board = board
        self.machine = board.machine
        self.uart = board.uart
        self.ram = board.ram
        self.flash = board.flash
        self.addresses = addresses
        self.tracer = tracer
        self.layout = layout
        self.bp_hits: List[int] = []
        self.panic_info: Optional[Tuple[str, str]] = None
        self._site_stack: List[Optional[SiteInfo]] = []
        self._modules: Dict[str, str] = {}

    # -- frames / coverage -------------------------------------------------

    def enter(self, symbol: str, module: str) -> None:
        """Prologue of an instrumented function.

        In order: push the machine frame (PC to the symbol's address,
        ``cycles_per_call`` charged), push the site block, fire the entry
        site when the module is instrumented, then record a breakpoint
        armed on the entry address.  Nothing is cached per boot: this
        context is part of the pickled runtime image (DESIGN §5).
        """
        address = self.addresses.get(symbol, 0)
        self.machine.push_frame(
            StackFrame(symbol=symbol, address=address, module=module))
        info = self.tracer.site_table.for_symbol(symbol)
        self._site_stack.append(info)
        if info is not None and self.tracer.module_enabled(module):
            self.machine.tick(self.tracer.hit(info.base))
        if address and self.machine.breakpoint_at(address):
            self.bp_hits.append(address)

    def leave(self) -> None:
        """Epilogue of a normal return: pop the site block and the
        machine frame (PC back to the caller)."""
        self._site_stack.pop()
        self.machine.pop_frame()

    def leave_on_signal(self) -> None:
        """Epilogue of a :class:`TargetSignal`: pop only the site block.

        The machine frames stay, so the debug probe can unwind the
        exact crash stack (Figure 6).  Any other exception pops nothing.
        """
        self._site_stack.pop()

    @contextlib.contextmanager
    def frame(self, symbol: str, module: str):
        """The ``with`` form of a ``@kfunc`` call's prologue and epilogue."""
        self.enter(symbol, module)
        try:
            yield
        except TargetSignal:
            self.leave_on_signal()
            raise
        self.leave()

    def cov(self, sub_site: int) -> None:
        """Fire sub-site ``sub_site`` of the current function.

        Besides the SanCov callback, this checks *basic-block
        breakpoints*: a debugger can break on any block's address
        (``function address + 4 * block index``), which is how
        GDBFuzz-style tools obtain coverage without instrumentation.
        """
        info = self._site_stack[-1] if self._site_stack else None
        if info is None:
            return
        if self.tracer.module_enabled(info.module):
            self.machine.tick(self.tracer.hit(info.site(sub_site)))
        if self.machine.breakpoint_count():
            block_addr = self.addresses.get(info.symbol, 0) + 4 * sub_site
            if block_addr and self.machine.breakpoint_at(block_addr):
                self.bp_hits.append(block_addr)

    def drop_frames_to(self, depth: int) -> None:
        """Unwind machine frames down to ``depth`` (agent cleanup after a
        handled, non-fatal signal)."""
        while self.machine.stack_depth() > depth:
            self.machine.pop_frame()
        del self._site_stack[depth:]

    # -- console --------------------------------------------------------------

    def kprintf(self, line: str) -> None:
        """Kernel printf: one line to the UART (host-captured, §4.3.1)."""
        self.machine.tick(KPRINTF_CYCLES + len(line) // 4)
        self.uart.putline(line)

    # -- time -------------------------------------------------------------------

    def cycles(self, n: int) -> None:
        """Burn ``n`` cycles (models real work; negative = no work)."""
        if n > 0:
            self.machine.tick(n)

    def now(self) -> int:
        """Current cycle count (the kernel's tick source)."""
        return self.machine.cycles

    # -- failure paths -------------------------------------------------------------

    def panic(self, cause: str, detail: str = "") -> "None":
        """Enter the kernel panic path; never returns normally."""
        self.panic_info = (cause, detail)
        raise KernelPanic(cause, detail)

    def assert_failed(self, expr: str, location: str) -> "None":
        """A kernel assertion failed; never returns normally.

        The assert text is printed over UART *before* the hang, which is
        why the paper's log monitor (not the exception monitor) is what
        catches assertion bugs.
        """
        raise KernelAssertion(expr, location)

    def stall(self, reason: str) -> "None":
        """Enter an unbounded polling loop; never returns normally."""
        raise ExecutionStall(reason)

    def record_crash(self, cause_code: int, text: str) -> None:
        """Write the crash-info block the exception monitor reads."""
        base = self.layout.crash_addr
        data = text.encode("utf-8", "replace")[: self.layout.crash_size - 12]
        self.ram.write_u32(base, CRASH_MAGIC)
        self.ram.write_u32(base + 4, cause_code)
        self.ram.write_u32(base + 8, len(data))
        self.ram.write(base + 12, data)

    # -- raw hardware (for faithful bug effects) ----------------------------------

    def flash_raw_write(self, address: int, data: bytes) -> None:
        """Scribble directly on flash, bypassing erase rules.

        This is how a buggy kernel damages its own image (the condition
        that makes reboot insufficient and reflashing necessary, §4.4.2).
        """
        self.flash.write(address, data)
