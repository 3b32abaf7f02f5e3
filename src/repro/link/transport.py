"""The link transport: one choke point for every debug-port exchange.

:class:`DebugPortTransport` executes framed command batches as single
link *transactions* against a :class:`repro.hw.debug_port.DebugPort`.
Everything above it (the session, the engine's drain paths, the
baselines) speaks :class:`~repro.link.codec.Command` through
:class:`~repro.link.DebugLink`; all latency/byte instrumentation and
all chaos fault hooks live here, so no caller re-implements them.

The port is driven one primitive at a time (a real smart probe would do
the same on the far side of USB), so virtual-cycle accounting and
fault-injection opportunities depend only on the commands sent, never
on how they were grouped into transactions.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.errors import DebugLinkError, ProtocolError
from repro.link.codec import (
    OP_BACKTRACE,
    OP_CLEAR_ALL_BP,
    OP_CLEAR_BP,
    OP_COV_DRAIN,
    OP_FLASH_WRITE,
    OP_NAMES,
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
    command_wire_bytes,
    reply_wire_bytes,
)
from repro.obs import NULL_OBS

#: Commands that give an installed fault plan one injection opportunity,
#: exactly the set the debug port historically consulted chaos for.
_CHAOS_CORE_OPS = {
    OP_READ_MEM: "read_mem",
    OP_WRITE_MEM: "write_mem",
    OP_READ_U32: "read_u32",
    OP_WRITE_U32: "write_u32",
    OP_RESUME: "resume",
    OP_READ_PC: "read_pc",
}

#: Commands whose per-command obs record the DDI layer has always emitted.
_RECORDED_OPS = frozenset({
    OP_READ_MEM, OP_WRITE_MEM, OP_READ_U32, OP_WRITE_U32,
    OP_RESUME, OP_READ_PC, OP_SET_BP, OP_FLASH_WRITE, OP_RESET,
    OP_COV_DRAIN,
})


class DebugPortTransport:
    """Execute link transactions against one raw debug port.

    Keeps ``transactions`` / ``bytes_out`` / ``bytes_in`` running totals;
    ``chaos`` holds an installed fault plan's hooks (see
    :mod:`repro.chaos.link`), or None on a clean link.
    """

    def __init__(self, port, obs=NULL_OBS):
        self.port = port
        self.obs = obs
        self.transactions = 0
        self.bytes_out = 0
        self.bytes_in = 0
        self.chaos = None

    @property
    def bytes_moved(self) -> int:
        """Total frame bytes across the link, both directions."""
        return self.bytes_out + self.bytes_in

    # -- instrumentation -----------------------------------------------------

    def _record(self, command: str, started_at: int, nbytes: int = 0,
                **fields) -> None:
        """One finished command (caller checked ``obs.enabled``)."""
        spent = self.port.board.machine.cycles - started_at
        self.obs.histogram(f"ddi.cmd.{command}").record(spent)
        if nbytes:
            self.obs.counter(f"ddi.bytes.{command}").inc(nbytes)
        self.obs.emit("ddi.command", command=command, cycles_spent=spent,
                      bytes=nbytes, **fields)

    # -- chaos hooks ---------------------------------------------------------

    def _chaos_op(self, cmd: Command) -> None:
        """Give the installed fault plan one injection opportunity."""
        op = _CHAOS_CORE_OPS.get(cmd.op)
        if op is not None and self.chaos is not None:
            self.chaos.on_core_op(op)

    def _chaos_core(self, op: str) -> None:
        """Per-primitive-step consult inside composite commands, so a
        one-command drain sees the same fault opportunities as the
        separate word read, memory read and word write it stands for."""
        if self.chaos is not None:
            self.chaos.on_core_op(op)

    # -- the transaction boundary --------------------------------------------

    def transact(self, commands: Sequence[Command]) -> List[Reply]:
        """Run one transaction; replies are positionally ordered.

        Commands execute strictly in order; an error raised mid-batch
        (timeout, verify failure) leaves the earlier commands applied —
        the same state a sequence of single-command transactions would
        have reached, which is what the recovery ladder expects.
        """
        self.transactions += 1
        self.bytes_out += command_wire_bytes(commands)
        board = self.port.board
        started_at = board.machine.cycles
        try:
            replies = [self._execute(cmd) for cmd in commands]
        finally:
            if self.obs.enabled:
                self.obs.counter("link.transactions").inc()
                self.obs.histogram("link.txn.cycles").record(
                    board.machine.cycles - started_at)
        self.bytes_in += reply_wire_bytes(replies)
        if self.obs.enabled:
            nbytes = (command_wire_bytes(commands)
                      + reply_wire_bytes(replies))
            self.obs.counter("link.bytes").inc(nbytes)
            self.obs.emit(
                "link.transaction", commands=len(commands),
                ops=",".join(OP_NAMES[cmd.op] for cmd in commands),
                bytes=nbytes,
                cycles_spent=board.machine.cycles - started_at)
        return replies

    # -- command execution ----------------------------------------------------

    def _execute(self, cmd: Command) -> Reply:
        port = self.port
        board = port.board
        observed = self.obs.enabled and cmd.op in _RECORDED_OPS
        started_at = board.machine.cycles if observed else 0
        self._chaos_op(cmd)

        if cmd.op == OP_READ_MEM:
            data = port.read_mem(cmd.addr, cmd.length)
            if self.chaos is not None:
                data = self.chaos.filter_read(cmd.addr, data)
            if observed:
                self._record("read_memory", started_at, nbytes=cmd.length)
            return Reply(op=cmd.op, data=data)

        if cmd.op == OP_WRITE_MEM:
            port.write_mem(cmd.addr, cmd.data)
            if observed:
                self._record("write_memory", started_at,
                             nbytes=len(cmd.data))
            return Reply(op=cmd.op)

        if cmd.op == OP_READ_U32:
            value = port.read_u32(cmd.addr)
            if self.chaos is not None:
                value = self.chaos.filter_read_u32(cmd.addr, value)
            if observed:
                self._record("read_u32", started_at, nbytes=4)
            return Reply(op=cmd.op, value=value)

        if cmd.op == OP_WRITE_U32:
            port.write_u32(cmd.addr, cmd.value)
            if observed:
                self._record("write_u32", started_at, nbytes=4)
            return Reply(op=cmd.op)

        if cmd.op == OP_RESUME:
            event = port.resume()
            if observed:
                self._record("exec_continue", started_at,
                             halt=event.reason.value, symbol=event.symbol)
            return Reply(op=cmd.op, halt=event)

        if cmd.op == OP_READ_PC:
            pc = port.read_pc()
            if observed:
                self._record("read_pc", started_at)
            return Reply(op=cmd.op, value=pc)

        if cmd.op == OP_SET_BP:
            port.set_breakpoint(cmd.addr, cmd.label)
            if observed:
                self._record("break_insert", started_at, location=cmd.label)
            return Reply(op=cmd.op, value=cmd.addr)

        if cmd.op == OP_CLEAR_BP:
            port.clear_breakpoint(cmd.addr)
            return Reply(op=cmd.op)

        if cmd.op == OP_CLEAR_ALL_BP:
            port.clear_all_breakpoints()
            return Reply(op=cmd.op)

        if cmd.op == OP_BACKTRACE:
            return Reply(op=cmd.op, frames=tuple(port.backtrace()))

        if cmd.op == OP_FLASH_WRITE:
            return self._flash_write(cmd, started_at if observed else None)

        if cmd.op == OP_RESET:
            port.reset()
            if observed:
                self._record("reset_run", started_at,
                             booted=not board.boot_failed)
            return Reply(op=cmd.op, value=int(not board.boot_failed))

        if cmd.op == OP_UART_READ:
            lines, cursor = port.uart_read(cmd.value)
            if self.chaos is not None:
                lines = self.chaos.filter_uart(lines)
            if lines and self.obs.enabled:
                self.obs.counter("uart.lines").inc(len(lines))
            return Reply(op=cmd.op, lines=tuple(lines), cursor=cursor)

        if cmd.op == OP_COV_DRAIN:
            return self._cov_drain(cmd, started_at if observed else None)

        raise ProtocolError(f"unknown link opcode {cmd.op}")

    def _flash_write(self, cmd: Command, started_at) -> Reply:
        """``flash write_image``: erase + program + verify, one exchange.

        Chaos flash corruption is applied on the way into the array and
        must be caught by the verify readback — silent damage is exactly
        what the reflash rung's bounded retries exist for.
        """
        port = self.port
        port.flash_erase(cmd.addr, len(cmd.data))
        data = cmd.data
        if self.chaos is not None:
            data = self.chaos.filter_flash(cmd.addr, data)
        port.flash_program(cmd.addr, data)
        if cmd.verify and port.flash_read(cmd.addr,
                                          len(cmd.data)) != cmd.data:
            raise DebugLinkError(
                f"flash verify failed at 0x{cmd.addr:08x}")
        if started_at is not None:
            self._record("flash_write", started_at, nbytes=len(cmd.data),
                         address=cmd.addr)
        return Reply(op=cmd.op, value=len(cmd.data))

    def _cov_drain(self, cmd: Command, started_at) -> Reply:
        """Delta coverage drain: the whole §4.5.1 sequence, one exchange.

        ``cmd.gen_addr`` points at the tracer's generation word and
        ``cmd.last_gen`` is what the host saw last drain: when they still
        match, the buffer content has not changed and the reply is a
        single word instead of ``4 + count*4`` bytes.  Each primitive
        step consults chaos exactly as the equivalent single command
        would.
        """
        port = self.port
        gen = 0
        if cmd.gen_addr:
            self._chaos_core("read_u32")
            gen = port.read_u32(cmd.gen_addr)
            if self.chaos is not None:
                gen = self.chaos.filter_read_u32(cmd.gen_addr, gen)
            if cmd.last_gen is not None and gen == cmd.last_gen:
                if started_at is not None:
                    self._record("cov_drain", started_at, nbytes=4,
                                 skipped=True)
                return Reply(op=cmd.op, value=gen, data=None)
        self._chaos_core("read_u32")
        count = port.read_u32(cmd.addr)
        if self.chaos is not None:
            count = self.chaos.filter_read_u32(cmd.addr, count)
        count = min(count, cmd.length)
        self._chaos_core("read_mem")
        raw = port.read_mem(cmd.addr, 4 + count * 4)
        if self.chaos is not None:
            raw = self.chaos.filter_read(cmd.addr, raw)
        self._chaos_core("write_u32")
        port.write_u32(cmd.addr, 0)
        if started_at is not None:
            self._record("cov_drain", started_at, nbytes=len(raw),
                         skipped=False)
        return Reply(op=cmd.op, value=gen, data=raw)
