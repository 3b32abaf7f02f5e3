"""Algorithm 1, ``LivenessWatchDog``: the two host-side liveness checks.

1. **Connection timeout** — a debug-link operation raising
   :class:`DebugLinkTimeout` means the target failed to boot or is
   entirely unresponsive (lines 4-5).
2. **PC stall** — ``-exec-continue`` that leaves the program counter
   unchanged means no instruction retires, typically a corrupted image or
   a dead spin (lines 6-10).

Both run host-side over the debug link with no target instrumentation.
"""

from __future__ import annotations

from repro.ddi.session import DebugSession
from repro.errors import DebugLinkTimeout
from repro.obs import NULL_OBS

INT_MIN = -(2 ** 31)


class LivenessWatchdog:
    """Stateful watchdog bound to one debug session."""

    def __init__(self, session: DebugSession, obs=NULL_OBS):
        self.session = session
        self.obs = obs
        self.last_pc: int = INT_MIN
        self.timeout_trips = 0
        self.stall_trips = 0

    def reset(self) -> None:
        """Forget PC history (after a restoration or reboot)."""
        self.last_pc = INT_MIN

    def note_timeout(self) -> None:
        """Record a :class:`DebugLinkTimeout` observed outside
        :meth:`check` (e.g. the engine's execute path), so the watchdog
        trip counter and the engine's ``link_timeouts`` stat cannot
        drift apart."""
        self.timeout_trips += 1
        if self.obs.enabled:
            self.obs.emit("liveness.trip", kind="link-timeout",
                          trips=self.timeout_trips)

    def check(self) -> bool:
        """One watchdog evaluation; False = system needs salvaging.

        Mirrors Algorithm 1 line-by-line: a connection timeout fails
        immediately; the first PC sample only seeds history; a repeated
        PC fails.
        """
        try:
            pc = self.session.link.read_pc()
        except DebugLinkTimeout:
            self.timeout_trips += 1
            if self.obs.enabled:
                self.obs.emit("liveness.trip", kind="link-timeout",
                              trips=self.timeout_trips)
            return False
        if self.last_pc == INT_MIN:
            self.last_pc = pc
            return True
        if self.last_pc == pc:
            self.stall_trips += 1
            if self.obs.enabled:
                self.obs.emit("liveness.trip", kind="pc-stall", pc=pc,
                              trips=self.stall_trips)
            return False
        self.last_pc = pc
        return True
