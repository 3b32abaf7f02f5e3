"""The batched debug-link client.

:class:`DebugLink` is the one object host code uses to command a target
(``session.link``).  Its command methods carry the paper's GDB/OpenOCD
names — each is the :data:`~repro.link.codec.OP_NAMES` entry of its
opcode (``read_memory``, ``exec_continue``, ``break_insert``,
``reset_run``, ...).  It adds the three things the raw transport cannot
express:

* **batching** — ``with link.batch():`` collects commands and flushes
  them as ONE transaction at scope exit; reads return
  :class:`PendingReply` handles resolved at the flush,
* **delta coverage drain** — :meth:`cov_drain` remembers the tracer's
  generation word per buffer, so an unchanged buffer costs one word,
* **a page-granular dirty log** of every way target RAM can change,
  which snapshot restore (:mod:`repro.fuzz.snapshot`) writes back.

Every read goes to the target: there is no host-side memory cache.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.errors import DebugLinkError
from repro.link.codec import (
    OP_BACKTRACE,
    OP_CLEAR_ALL_BP,
    OP_CLEAR_BP,
    OP_COV_DRAIN,
    OP_FLASH_WRITE,
    OP_READ_MEM,
    OP_READ_PC,
    OP_READ_U32,
    OP_RESET,
    OP_RESUME,
    OP_SET_BP,
    OP_UART_READ,
    OP_WRITE_MEM,
    OP_WRITE_U32,
    Command,
    Reply,
)
from repro.link.transport import DebugPortTransport

#: Granularity of the host-side dirty log (bytes).  Small enough that a
#: typical post-boot restore moves a few tens of KB, large enough that
#: the page set stays a handful of ints per executed program.
DIRTY_PAGE_SIZE = 1024


def pages_for_range(addr: int, length: int) -> range:
    """Page indices overlapping ``[addr, addr + length)``."""
    if length <= 0:
        return range(0)
    return range(addr // DIRTY_PAGE_SIZE,
                 (addr + length - 1) // DIRTY_PAGE_SIZE + 1)


class PendingReply:
    """A batched command's result, readable after the batch flushed."""

    __slots__ = ("_decode", "_value", "_resolved")

    def __init__(self, decode):
        self._decode = decode
        self._value = None
        self._resolved = False

    def _resolve(self, reply: Reply) -> None:
        self._value = self._decode(reply)
        self._resolved = True

    @property
    def resolved(self) -> bool:
        return self._resolved

    def result(self):
        """The decoded reply; raises if the batch has not flushed."""
        if not self._resolved:
            raise DebugLinkError(
                "batched link reply read before the batch flushed")
        return self._value


class _Batch:
    """Commands collected inside one ``with link.batch():`` scope."""

    def __init__(self):
        self.items: List[Tuple[Command, PendingReply]] = []

    def add(self, cmd: Command, decode) -> PendingReply:
        pending = PendingReply(decode)
        self.items.append((cmd, pending))
        return pending

    def __len__(self) -> int:
        return len(self.items)


class DebugLink:
    """High-level client over one :class:`DebugPortTransport`."""

    def __init__(self, transport: DebugPortTransport):
        self.transport = transport
        self._batch: Optional[_Batch] = None
        self._drain_gen: Dict[int, int] = {}
        # Page-granular write log (repro.fuzz.snapshot): every way target
        # RAM can change after a snapshot capture lands here — host
        # writes page-precisely, execution windows via the declared
        # exec-dirty ranges, resets wholesale.
        self._dirty_pages: Set[int] = set()
        self._dirty_all = False
        self._exec_dirty_pages: FrozenSet[int] = frozenset()
        # Bumped on every flash write: a snapshot captured against an
        # older flash image must not be restored over a newer one.
        self.flash_epoch = 0

    # -- accounting ----------------------------------------------------------

    @property
    def transactions(self) -> int:
        return self.transport.transactions

    @property
    def bytes_moved(self) -> int:
        return self.transport.bytes_moved

    # -- batching ------------------------------------------------------------

    @contextmanager
    def batch(self):
        """Collect commands and flush them as one link transaction.

        Nested scopes join the outermost batch.  If the body raises, the
        collected commands are discarded (nothing was sent); an error
        *during* the flush propagates with earlier commands applied,
        matching sequential single-command semantics.
        """
        if self._batch is not None:
            yield self._batch
            return
        self._batch = _Batch()
        ok = False
        try:
            yield self._batch
            ok = True
        finally:
            state, self._batch = self._batch, None
            if ok and state.items:
                self._flush(state)

    def _flush(self, state: _Batch) -> None:
        commands = [cmd for cmd, _ in state.items]
        replies = self.transport.transact(commands)
        for (cmd, pending), reply in zip(state.items, replies):
            self._after(cmd, reply)
            pending._resolve(reply)

    def _submit(self, cmd: Command, decode):
        """One command: queue it (in a batch) or transact immediately."""
        if self._batch is not None:
            return self._batch.add(cmd, decode)
        [reply] = self.transport.transact([cmd])
        self._after(cmd, reply)
        return decode(reply)

    def _after(self, cmd: Command, reply: Reply) -> None:
        """Post-transaction dirty-log and drain bookkeeping, in
        execution order."""
        op = cmd.op
        if op == OP_WRITE_MEM:
            self._dirty_pages.update(pages_for_range(cmd.addr,
                                                     len(cmd.data)))
        elif op == OP_WRITE_U32:
            self._dirty_pages.update(pages_for_range(cmd.addr, 4))
        elif op == OP_RESUME:
            # The core ran: everything in the declared execution-dirty
            # ranges (heap, status, crash, coverage) may have changed.
            self._dirty_pages.update(self._exec_dirty_pages)
        elif op == OP_RESET:
            self._dirty_all = True
            # A reset rewinds the tracer's generation word; forgetting
            # the last drained generation forces the next cov_drain to
            # be a full one — an ABA-matching generation after reboot
            # must never read as "nothing changed".
            self._drain_gen.clear()
        elif op == OP_FLASH_WRITE:
            # Any RAM snapshot predates the new flash image.
            self.flash_epoch += 1
        elif op == OP_COV_DRAIN:
            self._dirty_pages.update(
                pages_for_range(cmd.addr, 4 + cmd.length * 4))
            if cmd.gen_addr:
                self._dirty_pages.update(pages_for_range(cmd.gen_addr, 4))
                self._drain_gen[cmd.gen_addr] = reply.value

    # -- dirty-page log (repro.fuzz.snapshot) --------------------------------

    def set_exec_dirty_ranges(self,
                              ranges: Iterable[Tuple[int, int]]) -> None:
        """Declare the address ranges execution itself can mutate.

        The host cannot watch the core write RAM, but on this target the
        writable surface is known statically (kernel heap, agent status,
        crash block, coverage buffer + generation word): every
        ``OP_RESUME`` marks these pages dirty.  Page indices are
        precomputed once so the per-resume cost is one set update.
        """
        pages: Set[int] = set()
        for addr, length in ranges:
            pages.update(pages_for_range(addr, length))
        self._exec_dirty_pages = frozenset(pages)

    @property
    def dirty_all(self) -> bool:
        """True when a reset made the whole image stale."""
        return self._dirty_all

    def dirty_pages(self) -> Set[int]:
        """Copy of the pages written since the last :meth:`clear_dirty`."""
        return set(self._dirty_pages)

    def clear_dirty(self) -> None:
        """Start a fresh dirty window (called at capture/after restore)."""
        self._dirty_pages.clear()
        self._dirty_all = False

    def forget_drain_state(self) -> None:
        """Drop per-buffer drain generations so the next coverage drain
        is a full one (a restore rewound the generation word)."""
        self._drain_gen.clear()

    # -- memory --------------------------------------------------------------

    def read_memory(self, addr: int, length: int):
        """``-data-read-memory-bytes``."""
        return self._submit(Command(op=OP_READ_MEM, addr=addr,
                                    length=length),
                            lambda reply: reply.data)

    def write_memory(self, addr: int, data: bytes):
        """``-data-write-memory-bytes``."""
        return self._submit(Command(op=OP_WRITE_MEM, addr=addr,
                                    data=bytes(data)),
                            lambda reply: None)

    def read_u32(self, addr: int):
        """Read one little-endian word of target memory."""
        return self._submit(Command(op=OP_READ_U32, addr=addr),
                            lambda reply: reply.value)

    def write_u32(self, addr: int, value: int):
        """Write one little-endian word of target memory."""
        return self._submit(Command(op=OP_WRITE_U32, addr=addr,
                                    value=value),
                            lambda reply: None)

    # -- run control ---------------------------------------------------------

    def exec_continue(self):
        """``-exec-continue``: run to the next stop; the HaltEvent."""
        return self._submit(Command(op=OP_RESUME),
                            lambda reply: reply.halt)

    def read_pc(self):
        """Sample the program counter (``-data-list-register-values pc``)."""
        return self._submit(Command(op=OP_READ_PC),
                            lambda reply: reply.value)

    def break_insert(self, addr: int, label: str = ""):
        """``-break-insert``: arm a hardware breakpoint; the address."""
        return self._submit(Command(op=OP_SET_BP, addr=addr, label=label),
                            lambda reply: reply.value)

    def break_delete(self, addr: int):
        """``-break-delete``."""
        return self._submit(Command(op=OP_CLEAR_BP, addr=addr),
                            lambda reply: None)

    def break_delete_all(self):
        """Remove every breakpoint."""
        return self._submit(Command(op=OP_CLEAR_ALL_BP),
                            lambda reply: None)

    def backtrace(self):
        """``-stack-list-frames``: unwind the target stack."""
        return self._submit(Command(op=OP_BACKTRACE),
                            lambda reply: list(reply.frames))

    # -- flash / reset / UART ------------------------------------------------

    def flash_write(self, addr: int, data: bytes, verify: bool = True):
        """``flash write_image``: erase, program, optionally verify."""
        return self._submit(Command(op=OP_FLASH_WRITE, addr=addr,
                                    data=bytes(data), verify=verify),
                            lambda reply: None)

    def reset_run(self):
        """``monitor reset run``: warm reset; True when the target booted."""
        return self._submit(Command(op=OP_RESET),
                            lambda reply: bool(reply.value))

    def uart_read(self, cursor: int):
        """UART lines past ``cursor``: ``(lines, new cursor)``."""
        return self._submit(Command(op=OP_UART_READ, value=cursor),
                            lambda reply: (list(reply.lines), reply.cursor))

    # -- coverage ------------------------------------------------------------

    def cov_drain(self, addr: int, capacity: int, gen_addr: int = 0):
        """Drain the coverage buffer in one transaction.

        Returns the raw ``[count u32][records...]`` bytes, or ``None``
        when the generation word says nothing changed since the last
        drain of this buffer.  The generation bookkeeping lives here, so
        a fresh boot (generation reset) forces a full drain and can
        never serve stale coverage.
        """
        last_gen = self._drain_gen.get(gen_addr) if gen_addr else None
        cmd = Command(op=OP_COV_DRAIN, addr=addr, length=capacity,
                      gen_addr=gen_addr, last_gen=last_gen)
        return self._submit(cmd, lambda reply: reply.data)
