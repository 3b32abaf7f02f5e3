"""Algorithm 1 ``StateRestoration`` plus the recovery-escalation ladder.

:class:`StateRestoration` is the paper's heavy hammer: reflash every
partition from the KConfig partition table (line 13) and reboot.
:class:`RecoveryLadder` is what makes the loop survive *flaky* hardware:
a bounded-retry escalation over four rungs —

    retry  →  reboot  →  reflash + verify readback  →  full reattach

— each with deterministic backoff charged to the virtual cycle clock,
ending in :class:`~repro.errors.RecoveryExhausted` (quarantine) when the
board never comes back.  Every rung's attempts and successes surface
through ``repro.obs`` as ``recovery.escalate`` events,
``recovery.rung.*`` counters and a ``recovery.latency`` histogram.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.ddi.session import DebugSession
from repro.errors import (
    DebugLinkError,
    DebugLinkTimeout,
    FlashError,
    RecoveryExhausted,
)
from repro.firmware.layout import parse_partition_table
from repro.obs import NULL_OBS

# Virtual-time cost of a full reflash + the post-reboot settle sleep
# (Algorithm 1 line 19 sleeps 5 s; flashing a few hundred KB takes
# seconds over SWD).  Charged to the machine's cycle clock so crash-heavy
# fuzzing pays a realistic throughput price.
REFLASH_CYCLES = 60_000
SETTLE_CYCLES = 20_000

# Post-reboot settle charged by the ladder's reboot rung (the engine's
# historical reboot cost).
REBOOT_CYCLES = 20_000

# First-attempt backoff of the retry rung; doubles per attempt.
RETRY_BACKOFF_CYCLES = 2_000

# Reflash-free engines (restore_with_reflash=False) cannot self-repair a
# damaged image: model the gap until a human reflashes the part.
MANUAL_INTERVENTION_CYCLES = 80_000

# Bounded attempts per rung (deterministic, so recovery event streams
# are reproducible run-to-run).  The snapshot rung gets exactly one
# attempt: a failed verify means the snapshot is suspect, and retrying
# the same suspect image cannot succeed — escalate instead.
DEFAULT_RUNG_ATTEMPTS = {
    "snapshot": 1,
    "retry": 2,
    "reboot": 2,
    "reflash": 3,
    "reattach": 2,
}


class StateRestoration:
    """Reflash-based recovery bound to one session."""

    def __init__(self, session: DebugSession, obs=NULL_OBS):
        self.session = session
        self.obs = obs
        self.restorations = 0
        # Line 13: PartitionMap <- GetPartitionTable(KConfig)
        self.partition_specs = parse_partition_table(
            session.build.kconfig_text)
        self._files: Dict[str, Tuple[bytes, int]] = \
            session.build.partition_map()

    def restore(self) -> bool:
        """Lines 15-19: flash each partition file at its offset, rewrite
        the master header, reboot, settle.  True if the target came back.

        The full :data:`REFLASH_CYCLES` cost is charged across the
        partitions *actually flashed* — specs without a host-side
        payload skip the flash but must not shrink the charged cost.
        """
        self.restorations += 1
        board = self.session.board
        started_at = board.machine.cycles
        flashed_bytes = 0
        flashable = [part for part in self.partition_specs
                     if part.name in self._files]
        per_part = REFLASH_CYCLES // max(len(flashable), 1)
        for part in flashable:
            payload, offset = self._files[part.name]
            self.session.flash(payload, offset)
            flashed_bytes += len(payload)
            board.machine.tick(per_part)
        if flashable:
            # Integer-division remainder: the charge is exactly
            # REFLASH_CYCLES, however many partitions carried payloads.
            board.machine.tick(REFLASH_CYCLES - per_part * len(flashable))
        self.session.flash_header()
        if self.obs.enabled:
            self.obs.emit("restore.reflash", partitions=len(flashable),
                          bytes=flashed_bytes,
                          cycles_spent=board.machine.cycles - started_at)
        self.session.reboot()
        board.machine.tick(SETTLE_CYCLES)  # sleep(5s)
        booted = not board.boot_failed
        if self.obs.enabled:
            spent = board.machine.cycles - started_at
            self.obs.histogram("restore.latency").record(spent)
            self.obs.emit("restore.reboot", booted=booted,
                          cycles_spent=spent, kind="reflash")
        return booted


class RecoveryLadder:
    """Bounded, escalating recovery for one debug session.

    Rungs, cheapest first:

    0. ``snapshot`` — :class:`repro.fuzz.snapshot.SnapshotManager`:
       write back dirty RAM pages + registers, verify with the
       generation word and canary readback.  Skipped silently (no
       attempt charged) when no manager is attached or its snapshot is
       not ready, so snapshot-less ladders behave exactly as before.
    1. ``retry``    — deterministic backoff, then probe the link again
       (a transient chaos glitch must not cost a reflash).
    2. ``reboot``   — warm reset + settle; fixes parked PCs with an
       intact image.
    3. ``reflash``  — :class:`StateRestoration` with verify readback;
       flash-write corruption fails the attempt and is retried.
    4. ``reattach`` — :meth:`DebugSession.reattach` (probe detach +
       power cycle) followed by a fresh reflash.

    Every rung's attempts are bounded; when the top rung fails the
    board is quarantined via :class:`RecoveryExhausted`.  A rung only
    *succeeds* once :meth:`_verify_alive` confirmed the board booted,
    the link answers, and the caller's breakpoints re-armed — so a
    successful :meth:`recover` guarantees the engine never executes a
    program on a board whose last reboot reported ``boot_failed``.
    """

    RUNGS = ("snapshot", "retry", "reboot", "reflash", "reattach")

    def __init__(self, session: DebugSession,
                 restoration: StateRestoration,
                 watchdog=None, stats=None, obs=NULL_OBS,
                 rearm=None, use_reflash: bool = True,
                 attempts: Optional[Dict[str, int]] = None,
                 snapshot=None):
        self.session = session
        self.restoration = restoration
        self.watchdog = watchdog
        self.stats = stats
        self.obs = obs
        self.rearm = rearm  # callable: re-install breakpoints/monitors
        self.use_reflash = use_reflash
        self.snapshot = snapshot  # Optional SnapshotManager (rung 0)
        self.attempts = dict(DEFAULT_RUNG_ATTEMPTS)
        if attempts:
            self.attempts.update(attempts)

    # -- the ladder ---------------------------------------------------------

    def recover(self, start: str = "retry", reason: str = "",
                skip: Tuple[str, ...] = ()) -> str:
        """Climb the ladder from ``start``; returns the winning rung.

        ``skip`` names rungs to pass over without charging attempts —
        the crash path skips ``retry`` when it falls past the snapshot
        rung, because re-probing a panicked kernel can answer the link
        without having recovered anything.  The snapshot rung skips
        itself (silently, no attempt charged) when no manager is
        attached or its snapshot is not ready.

        Raises :class:`RecoveryExhausted` when every remaining rung's
        attempt budget is spent without the board coming back.
        """
        board = self.session.board
        started_at = board.machine.cycles
        attempted = []
        for rung in self.RUNGS[self.RUNGS.index(start):]:
            if rung in skip:
                continue
            if rung == "snapshot" and (self.snapshot is None
                                       or not self.snapshot.ready):
                continue
            for attempt in range(1, self.attempts[rung] + 1):
                attempted.append(rung)
                if self.obs.enabled:
                    self.obs.counter(f"recovery.rung.{rung}.attempts").inc()
                ok = self._run_rung(rung, attempt)
                if self.obs.enabled:
                    self.obs.emit("recovery.escalate", rung=rung,
                                  attempt=attempt, ok=ok, reason=reason)
                if ok:
                    spent = board.machine.cycles - started_at
                    if self.stats is not None:
                        self.stats.recoveries += 1
                    if self.obs.enabled:
                        self.obs.counter(
                            f"recovery.rung.{rung}.successes").inc()
                        self.obs.histogram("recovery.latency").record(spent)
                        self.obs.emit("recovery.complete", rung=rung,
                                      attempts=len(attempted),
                                      cycles_spent=spent, reason=reason)
                    return rung
        if self.stats is not None:
            self.stats.recovery_failures += 1
        if self.obs.enabled:
            self.obs.emit("recovery.exhausted", reason=reason,
                          attempts=len(attempted),
                          cycles_spent=board.machine.cycles - started_at)
        flight = getattr(self.obs, "flight", None)
        if flight is not None:
            # Quarantine is exactly what the flight recorder exists for:
            # dump the last events before the board went dark.
            flight.dump("recovery-exhausted",
                        f"quarantine-{board.name}", obs=self.obs)
        raise RecoveryExhausted(
            f"{board.name}: recovery ladder exhausted after "
            f"{len(attempted)} attempts "
            f"({reason or 'unspecified failure'}); board quarantined",
            rungs=attempted)

    # -- rungs ---------------------------------------------------------------

    def _run_rung(self, rung: str, attempt: int) -> bool:
        if rung == "snapshot":
            return self._rung_snapshot()
        if rung == "retry":
            return self._rung_retry(attempt)
        if rung == "reboot":
            return self._rung_reboot()
        if rung == "reflash":
            return self._rung_reflash()
        return self._rung_reattach()

    def _rung_snapshot(self) -> bool:
        """Rung 0: snapshot write-back + verify probe.  The manager's
        own verify (gen word + canary) decides success; a suspect
        snapshot fails the rung and the ladder escalates to the reflash
        tier — no silent corruption can leak into coverage."""
        try:
            if not self.snapshot.restore():
                return False
        except (DebugLinkError, DebugLinkTimeout):
            return False
        return self._verify_alive()

    def _rung_retry(self, attempt: int) -> bool:
        # Deterministic exponential backoff, charged to virtual time.
        self.session.board.machine.tick(
            RETRY_BACKOFF_CYCLES << (attempt - 1))
        return self._verify_alive()

    def _rung_reboot(self) -> bool:
        board = self.session.board
        self.session.reboot()
        board.machine.tick(REBOOT_CYCLES)
        if self.stats is not None:
            self.stats.reboots += 1
        if self.obs.enabled:
            self.obs.emit("restore.reboot", kind="reboot-only",
                          booted=not board.boot_failed,
                          cycles_spent=REBOOT_CYCLES)
        if board.boot_failed:
            return False
        return self._verify_alive()

    def _rung_reflash(self) -> bool:
        if not self.use_reflash:
            # Naive recovery cannot self-reflash: wait out the
            # manual-intervention gap before "a human" does it.
            self.session.board.machine.tick(MANUAL_INTERVENTION_CYCLES)
        return self._restore_verified()

    def _rung_reattach(self) -> bool:
        if self.stats is not None:
            self.stats.reattaches += 1
        if not self.session.reattach():
            return False
        # A power cycle does not repair flash; always reflash after.
        return self._restore_verified()

    def _restore_verified(self) -> bool:
        """One reflash attempt; verify-readback failures fail the rung."""
        if self.stats is not None:
            self.stats.restorations += 1
        try:
            if not self.restoration.restore():
                return False
        except (DebugLinkError, DebugLinkTimeout, FlashError):
            return False
        return self._verify_alive()

    # -- success criterion ----------------------------------------------------

    def _verify_alive(self) -> bool:
        """Did the board really come back?  Booted, link answering,
        breakpoints re-armed, boot chatter drained, watchdog re-seeded."""
        board = self.session.board
        if board.boot_failed or board.runtime is None or board.link_lost:
            return False
        try:
            self.session.link.read_pc()
            if self.rearm is not None:
                self.rearm()
            self.session.consume_boot_chatter()
        except DebugLinkTimeout:
            return False
        if self.watchdog is not None:
            self.watchdog.reset()
        return True
