"""repro.link — the unified debug-link transport layer.

Everything that crosses the hardware debug port goes through one stack:

    DebugLink (GDB/OpenOCD command names, batching, delta drain,
               read-through cache)
        -> DebugPortTransport (framing, obs choke point, chaos boundary)
            -> DebugPort (raw probe primitives)

A :class:`~repro.ddi.DebugSession` builds the stack and exposes the
client as ``session.link``.  See DESIGN.md §9 for the batching and
invalidation semantics.
"""

from repro.link.client import DebugLink, PendingReply
from repro.link.codec import (
    Command,
    Reply,
    command_wire_bytes,
    decode_batch,
    decode_command,
    decode_u16,
    decode_u32,
    encode_batch,
    encode_command,
    encode_u16,
    encode_u32,
    reply_wire_bytes,
)
from repro.link.transport import DebugPortTransport

__all__ = [
    "Command",
    "DebugLink",
    "DebugPortTransport",
    "PendingReply",
    "Reply",
    "command_wire_bytes",
    "decode_batch",
    "decode_command",
    "decode_u16",
    "decode_u32",
    "encode_batch",
    "encode_command",
    "encode_u16",
    "encode_u32",
    "reply_wire_bytes",
]
