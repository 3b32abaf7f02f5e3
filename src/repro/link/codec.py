"""Wire framing for the unified debug-link transport.

One link *transaction* carries a batch of commands to the probe and a
batch of replies back.  The frame layout models what a smart probe (or
an OpenOCD TCL script) would actually move across USB::

    frame  := magic "EOFL" | u8 version | u16 count | command*
    command:= u8 op | u32 addr | u32 value | u32 length | u32 gen_addr
              | u32 last_gen+1 (0 = none) | u8 flags | u16 label_len
              | label utf-8 | u32 data_len | data

Replies stay host-side dataclasses (the virtual probe hands back Python
objects), but every reply knows its wire size so byte accounting matches
what a real link would move.

This module is also the single home of the word-size/endianness
helpers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.errors import ProtocolError

# -- word-size / endianness helpers (the shared canonical copies) -----------

U32_MASK = 0xFFFFFFFF


def encode_u16(value: int) -> bytes:
    """One little-endian halfword."""
    return int(value & 0xFFFF).to_bytes(2, "little")


def decode_u16(raw: bytes, offset: int = 0) -> int:
    """Inverse of :func:`encode_u16`."""
    return int.from_bytes(raw[offset:offset + 2], "little")


def encode_u32(value: int) -> bytes:
    """One little-endian word."""
    return int(value & U32_MASK).to_bytes(4, "little")


def decode_u32(raw: bytes, offset: int = 0) -> int:
    """Inverse of :func:`encode_u32`."""
    return int.from_bytes(raw[offset:offset + 4], "little")


# -- command vocabulary ------------------------------------------------------

OP_READ_MEM = 1
OP_WRITE_MEM = 2
OP_READ_U32 = 3
OP_WRITE_U32 = 4
OP_RESUME = 5
OP_READ_PC = 6
OP_SET_BP = 7
OP_CLEAR_BP = 8
OP_CLEAR_ALL_BP = 9
OP_BACKTRACE = 10
OP_FLASH_WRITE = 11
OP_RESET = 12
OP_UART_READ = 13
OP_COV_DRAIN = 14

#: opcode -> its GDB/OpenOCD command name: the
#: :class:`~repro.link.DebugLink` method and the ``ddi.cmd.*`` metric.
OP_NAMES = {
    OP_READ_MEM: "read_memory",
    OP_WRITE_MEM: "write_memory",
    OP_READ_U32: "read_u32",
    OP_WRITE_U32: "write_u32",
    OP_RESUME: "exec_continue",
    OP_READ_PC: "read_pc",
    OP_SET_BP: "break_insert",
    OP_CLEAR_BP: "break_delete",
    OP_CLEAR_ALL_BP: "break_delete_all",
    OP_BACKTRACE: "backtrace",
    OP_FLASH_WRITE: "flash_write",
    OP_RESET: "reset_run",
    OP_UART_READ: "uart_read",
    OP_COV_DRAIN: "cov_drain",
}

LINK_MAGIC = b"EOFL"
LINK_VERSION = 1
FRAME_HEADER_BYTES = len(LINK_MAGIC) + 1 + 2  # magic | version | count
_FLAG_VERIFY = 0x01
_FLAG_HAS_GEN = 0x02


@dataclass(frozen=True)
class Command:
    """One operation inside a link transaction."""

    op: int
    addr: int = 0
    value: int = 0
    length: int = 0
    gen_addr: int = 0
    last_gen: Optional[int] = None
    verify: bool = True
    label: str = ""
    data: bytes = b""

    def wire_bytes(self) -> int:
        """Encoded size, computed without serializing (hot path)."""
        return 28 + len(self.label.encode("utf-8")) + len(self.data)


@dataclass(frozen=True)
class Reply:
    """One command's result inside a link transaction."""

    op: int
    value: int = 0
    data: Optional[bytes] = None
    lines: Tuple[str, ...] = ()
    cursor: int = 0
    halt: object = None  # HaltEvent for OP_RESUME
    frames: Tuple = ()   # StackFrames for OP_BACKTRACE

    def wire_bytes(self) -> int:
        """What a real probe would ship back for this reply."""
        size = 8  # op + status/value word
        if self.data is not None:
            size += 4 + len(self.data)
        if self.halt is not None:
            size += 16  # reason, pc, detail handle, bp summary
        if self.lines:
            size += 4 + sum(len(line.encode("utf-8")) + 1
                            for line in self.lines)
        if self.frames:
            size += 8 * len(self.frames)
        return size


def command_wire_bytes(commands: Sequence[Command]) -> int:
    """Frame size of a command batch, without serializing it."""
    return FRAME_HEADER_BYTES + sum(cmd.wire_bytes() for cmd in commands)


def reply_wire_bytes(replies: Sequence[Reply]) -> int:
    """Frame size of a reply batch."""
    return FRAME_HEADER_BYTES + sum(reply.wire_bytes() for reply in replies)


# -- serialization (property-tested round trip) ------------------------------

def encode_command(cmd: Command) -> bytes:
    """Serialize one command into its wire form."""
    if cmd.op not in OP_NAMES:
        raise ProtocolError(f"unknown link opcode {cmd.op}")
    label = cmd.label.encode("utf-8")
    if len(label) > 0xFFFF:
        raise ProtocolError("link command label too long")
    flags = _FLAG_VERIFY if cmd.verify else 0
    if cmd.last_gen is not None:
        flags |= _FLAG_HAS_GEN
    out = bytearray()
    out.append(cmd.op)
    out += encode_u32(cmd.addr)
    out += encode_u32(cmd.value)
    out += encode_u32(cmd.length)
    out += encode_u32(cmd.gen_addr)
    out += encode_u32(cmd.last_gen or 0)
    out.append(flags)
    out += encode_u16(len(label))
    out += label
    out += encode_u32(len(cmd.data))
    out += cmd.data
    return bytes(out)


def decode_command(raw: bytes, offset: int = 0) -> Tuple[Command, int]:
    """Inverse of :func:`encode_command`; returns (command, next offset)."""
    if offset >= len(raw):
        raise ProtocolError("truncated link command")
    op = raw[offset]
    if op not in OP_NAMES:
        raise ProtocolError(f"unknown link opcode {op}")
    addr = decode_u32(raw, offset + 1)
    value = decode_u32(raw, offset + 5)
    length = decode_u32(raw, offset + 9)
    gen_addr = decode_u32(raw, offset + 13)
    last_gen_raw = decode_u32(raw, offset + 17)
    flags = raw[offset + 21]
    label_len = decode_u16(raw, offset + 22)
    cursor = offset + 24
    label = raw[cursor:cursor + label_len].decode("utf-8")
    cursor += label_len
    data_len = decode_u32(raw, cursor)
    cursor += 4
    data = bytes(raw[cursor:cursor + data_len])
    if len(data) != data_len:
        raise ProtocolError("truncated link command payload")
    cursor += data_len
    return Command(
        op=op, addr=addr, value=value, length=length, gen_addr=gen_addr,
        last_gen=last_gen_raw if flags & _FLAG_HAS_GEN else None,
        verify=bool(flags & _FLAG_VERIFY), label=label, data=data), cursor


def encode_batch(commands: Sequence[Command]) -> bytes:
    """Serialize a whole transaction frame."""
    if len(commands) > 0xFFFF:
        raise ProtocolError("link batch too large")
    out = bytearray(LINK_MAGIC)
    out.append(LINK_VERSION)
    out += encode_u16(len(commands))
    for cmd in commands:
        out += encode_command(cmd)
    return bytes(out)


def decode_batch(raw: bytes) -> List[Command]:
    """Inverse of :func:`encode_batch`."""
    if raw[:4] != LINK_MAGIC:
        raise ProtocolError("bad link frame magic")
    if raw[4] != LINK_VERSION:
        raise ProtocolError(f"unsupported link frame version {raw[4]}")
    count = decode_u16(raw, 5)
    commands = []
    offset = FRAME_HEADER_BYTES
    for _ in range(count):
        cmd, offset = decode_command(raw, offset)
        commands.append(cmd)
    if offset != len(raw):
        raise ProtocolError("trailing bytes after link frame")
    return commands

