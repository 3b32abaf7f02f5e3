"""Exception hierarchy for the EOF reproduction.

Two distinct families live here and must not be confused:

* **Host-side errors** (:class:`ReproError` subclasses other than
  :class:`TargetSignal`) are ordinary Python errors raised by host
  components — the debug link, the spec parser, the firmware builder.

* **Target signals** (:class:`TargetSignal` subclasses) model events that
  happen *inside the simulated target*: kernel panics, failed assertions,
  bus faults, infinite polling loops.  They are raised by kernel code and
  are always caught by the execution agent / virtual machine, which turns
  them into halt events observable over the debug port.  They must never
  escape to host code.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this package."""


# ---------------------------------------------------------------------------
# Host-side errors
# ---------------------------------------------------------------------------

class DebugLinkTimeout(ReproError):
    """The debug interface stopped responding (Algorithm 1, watchdog #1).

    Raised by the debug link when the target can no longer service debug
    requests, e.g. after a failed boot or a hard wedge.  The liveness
    watchdog treats this as "system unresponsive".
    """


class DebugLinkError(ReproError):
    """A debug-port operation failed for a reason other than a timeout."""


class FlashError(ReproError):
    """Illegal flash operation (programming a non-erased byte, bad sector)."""


class ImageError(ReproError):
    """A firmware image is malformed or fails checksum validation."""


class BuildError(ReproError):
    """The firmware builder was given an inconsistent configuration."""


class SpecError(ReproError):
    """Base class for specification (Syzlang) errors."""


class SpecParseError(SpecError):
    """The Syzlang source text could not be parsed."""

    def __init__(self, message: str, line: int = 0):
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line


class SpecTypeError(SpecError):
    """A parsed specification failed post-validation type checking.

    Carries the *complete* mismatch list as ``diagnostics`` (stable
    ``EOF11x`` codes, one entry per defect), so a spec author sees every
    problem in one round trip instead of fixing them one raise at a time.
    """

    def __init__(self, message: str, diagnostics=()):
        super().__init__(message)
        #: Tuple of :class:`repro.analysis.diagnostics.Diagnostic`.
        self.diagnostics = tuple(diagnostics)


class ProtocolError(ReproError):
    """A serialized test program violates the agent wire format."""


class RecoveryExhausted(ReproError):
    """Every rung of the recovery-escalation ladder failed.

    Raised by :class:`repro.fuzz.restore.RecoveryLadder` after bounded
    retries of retry → reboot → reflash+verify → full reattach all left
    the board dead.  The board is quarantined: the engine must stop
    loudly instead of executing programs on hardware that never came
    back (the failure mode Algorithm 1 exists to prevent).
    """

    def __init__(self, message: str, rungs=()):
        super().__init__(message)
        #: Rung names in the order they were attempted.
        self.rungs = tuple(rungs)


class StoreError(ReproError):
    """A campaign store (``repro.db``) cannot be used as requested.

    Raised only for *caller* mistakes — resuming into a directory that
    already holds a different campaign, pointing ``--resume`` at a
    directory with no state.  Corrupt on-disk bytes never raise: the
    loader salvages what verifies and quarantines the rest.
    """


class StoreConfigError(StoreError):
    """A resume was attempted with options that do not match the
    persisted campaign (seed / workers / sync interval / target).

    Replaying with different options cannot reproduce the interrupted
    campaign's state, so the store refuses rather than silently
    continuing a *different* campaign on top of the old journal.
    """


class UnsupportedTargetError(ReproError):
    """A fuzzer was pointed at a target/board it cannot drive.

    Raised e.g. when Tardis (emulator-only) is configured with a board that
    has no emulator support, mirroring the adaptability limits of Table 1.
    """


# ---------------------------------------------------------------------------
# Target-side signals (never escape the virtual machine)
# ---------------------------------------------------------------------------

class TargetSignal(ReproError):
    """Base class for events raised by simulated target code."""


class KernelPanic(TargetSignal):
    """The target kernel hit an unrecoverable error and called its panic
    entry point (``panic_handler`` / ``common_exception`` / ...).
    """

    def __init__(self, cause: str, detail: str = ""):
        super().__init__(f"{cause}: {detail}" if detail else cause)
        self.cause = cause
        self.detail = detail


class KernelAssertion(TargetSignal):
    """A kernel assertion failed.

    Per the paper, assertion failures surface through the *log monitor*:
    the kernel prints an assert line over UART and typically leaves the
    system hung (denial of service), rather than entering the exception
    handler.
    """

    def __init__(self, expr: str, location: str = ""):
        super().__init__(f"assertion '{expr}' failed at {location}")
        self.expr = expr
        self.location = location


class BusFault(TargetSignal):
    """An access outside any mapped memory region (hard fault)."""

    def __init__(self, address: int, kind: str = "access"):
        super().__init__(f"bus fault: illegal {kind} at 0x{address:08x}")
        self.address = address
        self.kind = kind


class ExecutionStall(TargetSignal):
    """Target code entered an unbounded polling loop.

    The machine converts this into a halt whose PC never advances, which
    is exactly the condition watchdog #2 of Algorithm 1 detects.
    """

    def __init__(self, reason: str = "infinite polling loop"):
        super().__init__(reason)
        self.reason = reason
