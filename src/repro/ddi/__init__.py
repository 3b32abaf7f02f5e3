"""Host-side debug interface (the OpenOCD + GDB pair of §4.3.1).

``DebugSession`` is the "DebugPipe" that Algorithm 1's watchdogs and
restoration operate on: it owns the probe, the build artifacts and the
UART stream, and keeps the DebugPipe verbs (flash, reboot, reattach,
UART drain).  Every other command — memory transfer, breakpoints,
``-exec-continue``, PC sampling — goes through ``session.link``, the
:class:`~repro.link.DebugLink` whose methods carry the paper's
GDB/OpenOCD names and which owns batching, the read-through memory
cache, and the obs/chaos choke point.
"""

from repro.ddi.session import DebugSession, open_session

__all__ = ["DebugSession", "open_session"]
