"""The DebugPipe: one object bundling everything the host needs to drive
one flashed board — the probe, the debug link, build artifacts, the UART
stream.

This is what Algorithm 1 calls ``DebugPipe``: the watchdogs probe it for
connection timeouts and PC movement; state restoration flashes partition
files through it and reboots.  Every other target command (memory
transfer, breakpoints, ``-exec-continue``, PC sampling, batching) goes
through ``session.link``, the session's :class:`~repro.link.DebugLink`.
"""

from __future__ import annotations

from typing import List

from repro.errors import DebugLinkTimeout
from repro.firmware.builder import BuildInfo, flash_build
from repro.firmware.loader import install_firmware_loader
from repro.hw.board import Board
from repro.hw.boards import make_board
from repro.hw.debug_port import DebugPort
from repro.link import DebugLink, DebugPortTransport
from repro.obs import NULL_OBS

# Virtual-time cost of a full probe re-attach: power the board down,
# let the rails drain, power up, re-enumerate the debug interface.
POWER_CYCLE_CYCLES = 30_000


class DebugSession:
    """A live host <-> target debug session."""

    def __init__(self, board: Board, build: BuildInfo, obs=NULL_OBS):
        self.board = board
        self.build = build
        self.obs = obs
        if obs.enabled:
            # Virtual-cycle timestamps come from this board's clock.
            obs.bind_clock(lambda: board.machine.cycles)
        self.port = DebugPort(board)
        self.link = DebugLink(DebugPortTransport(self.port, obs=obs))
        self._uart_cursor = 0

    # -- UART capture -----------------------------------------------------------

    def drain_uart(self) -> List[str]:
        """New UART lines since the last drain (host-side log stream)."""
        lines, self._uart_cursor = self.link.uart_read(self._uart_cursor)
        return lines

    def consume_boot_chatter(self) -> List[str]:
        """Drain the UART until the boot banner stops arriving.

        Both the engine and the one-shot harness used to hand-roll this
        after every (re)boot; the canonical loop lives here.  Returns
        every line consumed, in arrival order.
        """
        chatter: List[str] = []
        while True:
            lines = self.drain_uart()
            if not lines:
                return chatter
            chatter.extend(lines)

    # -- restoration primitives (Algorithm 1 lines 16-18) -----------------------

    def flash(self, payload: bytes, offset: int) -> None:
        """``DebugPipe.flash(Part.file, Part.offset)``."""
        self.link.flash_write(self.board.flash.base + offset, payload)

    def flash_header(self) -> None:
        """Rewrite the master header (part of a full restoration)."""
        from repro.firmware.image import pack_header
        header = pack_header(self.build.partitions)
        self.link.flash_write(self.board.flash.base, header)

    def reboot(self) -> None:
        """``DebugPipe.reboot()``."""
        self.link.reset_run()

    def reattach(self) -> bool:
        """Full session re-attach: detach the probe, power-cycle the
        board, reconnect.

        The heaviest recovery primitive short of human intervention —
        the recovery ladder's last rung before quarantine.  A power
        cycle clears latched probe loss; it does *not* repair damaged
        flash, so callers typically reflash right after.  Returns True
        when the probe reconnected and the target booted.
        """
        started_at = self.board.machine.cycles
        self.port.disconnect()
        self.board.power_off()
        self.board.machine.tick(POWER_CYCLE_CYCLES)
        self.board.power_on()
        try:
            self.port.connect()
        except DebugLinkTimeout:
            ok = False
        else:
            ok = not self.board.boot_failed
        if self.obs.enabled:
            self.obs.emit("ddi.command", command="reattach",
                          cycles_spent=self.board.machine.cycles - started_at,
                          bytes=0, booted=ok)
        return ok

    def close(self) -> None:
        """Detach the probe."""
        self.port.disconnect()


def open_session(build: BuildInfo, board: Board = None,
                 obs=NULL_OBS) -> DebugSession:
    """Provision a board with a built image and attach the debug stack.

    This is the "factory bring-up" path: make the board, install the ROM
    loader, flash the image, power on, connect the probe.
    """
    if board is None:
        board = make_board(build.board_spec.name)
    install_firmware_loader(board)
    flash_build(board, build)
    board.power_on()
    session = DebugSession(board, build, obs=obs)
    session.port.connect()
    return session
