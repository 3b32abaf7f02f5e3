"""The chaos hooks: wire a :class:`FaultPlan` into one debug stack.

A :class:`ChaosLink` sits at the transport boundary and is consulted by
:class:`repro.link.DebugPortTransport` (core-op timeouts, read
bit-flips, flash corruption, UART loss) and by
:class:`repro.hw.board.Board` (boot failure after reboot).  Because the
hooks live on the transport — the one choke point every host-to-target
command crosses — a composite command such as the coverage drain gets
one fault opportunity per port primitive it runs, however the commands
are grouped into transactions.  Install and uninstall are attribute
flips — the clean path stays a single ``is None`` check per operation,
so chaos-off runs are unperturbed.

Faults are injected *below* ``session.link`` on purpose: the engine,
the watchdogs and the restoration path all see exactly the errors a
real flaky board produces (``DebugLinkTimeout``, verify mismatches,
boot failures), not synthetic exceptions of their own.
"""

from __future__ import annotations

from typing import List

from repro.chaos.plan import FaultPlan
from repro.errors import DebugLinkTimeout
from repro.obs import NULL_OBS


class ChaosLink:
    """A fault plan bound to one board + debug port."""

    def __init__(self, plan: FaultPlan, board, obs=NULL_OBS):
        self.plan = plan
        self.board = board
        self.obs = obs

    # -- hooks called by DebugPortTransport ---------------------------------

    def on_core_op(self, op: str) -> None:
        """One core-level debug operation is about to run.

        May raise :class:`DebugLinkTimeout` — either a transient glitch
        (the retry rung's bread and butter) or a probe drop that latches
        ``board.link_lost`` until the next reset.
        """
        if self.plan.should("probe_drop"):
            self.board.link_lost = True
            raise DebugLinkTimeout(
                f"{self.board.name}: chaos: probe dropped during {op}")
        if self.plan.should("link_timeout"):
            raise DebugLinkTimeout(
                f"{self.board.name}: chaos: transient link timeout "
                f"during {op}")

    def filter_read(self, address: int, data: bytes) -> bytes:
        """Pass a memory read's payload through the bit-flip class."""
        if self.plan.should("read_bitflip"):
            return self.plan.flip_bit("read_bitflip", data)
        return data

    def filter_read_u32(self, address: int, value: int) -> int:
        """Word-read variant of :meth:`filter_read`."""
        if self.plan.should("read_bitflip"):
            return self.plan.flip_u32("read_bitflip", value)
        return value

    def filter_flash(self, address: int, data: bytes) -> bytes:
        """Corrupt bytes on their way into the flash array.

        The damage is *silent* here — it is the flash service's verify
        readback (and the reflash rung's bounded retries) that must
        catch it, exactly as on real worn flash.
        """
        if self.plan.should("flash_corrupt"):
            return self.plan.flip_bit("flash_corrupt", data)
        return data

    def filter_uart(self, lines: List[str]) -> List[str]:
        """Drop or garble captured UART lines."""
        profile = self.plan.profile
        if not lines or (profile.uart_drop_rate <= 0.0
                         and profile.uart_garble_rate <= 0.0):
            return lines
        out: List[str] = []
        for line in lines:
            if self.plan.should("uart_drop"):
                continue
            if self.plan.should("uart_garble"):
                line = self.plan.garble_text("uart_garble", line)
            out.append(line)
        return out

    # -- hook called by Board -----------------------------------------------

    def boot_should_fail(self) -> bool:
        """Should this (re)boot park at the reset vector?"""
        return self.plan.should("boot_fail")


def install_chaos(session, plan: FaultPlan, obs=NULL_OBS) -> ChaosLink:
    """Attach a fault plan to a live session's transport and board."""
    link = ChaosLink(plan, session.board, obs=obs)
    session.link.transport.chaos = link
    session.board.chaos = link
    return link


def uninstall_chaos(session) -> None:
    """Detach any installed chaos hooks (the clean path returns)."""
    session.link.transport.chaos = None
    session.board.chaos = None
