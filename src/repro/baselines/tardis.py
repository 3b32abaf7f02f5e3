"""Tardis (Shen et al., TCAD 2022) model.

Tardis is Syzkaller-derived and coverage-guided, but differs from EOF in
exactly the dimensions the paper calls out (§2.2, §5.4.1):

* **Emulator-bound**: it moves data through QEMU's shared-memory
  mechanism, so it can only run targets that have an emulated board.
  Pointing it at hardware-only parts (STM32H745) raises
  :class:`UnsupportedTargetError` — the Table 1 adaptability limit.
* **Base specs only**: its Syzlang corpus lacks the pseudo-function layer
  (event setting, multi-call sequences), so deep composed behaviours are
  out of its generative reach.
* **Timeout-only detection**: no exception-handler breakpoints, no UART
  log monitor.  Every failure looks like "the VM stopped responding";
  hangs are recorded without cause or backtrace, and assertion bugs that
  merely print-and-hang are indistinguishable from ordinary wedges.
  ("Even if Tardis can generate a test case that triggers such an error,
  it cannot identify the bug.")
"""

from __future__ import annotations

from repro.errors import UnsupportedTargetError
from repro.firmware.builder import BuildInfo
from repro.fuzz.engine import EngineOptions, EofEngine, FuzzResult
from repro.hw.boards import BOARD_CATALOG
from repro.spec.model import SpecSet

SUPPORTED_OSES = ("freertos", "rt-thread", "zephyr", "nuttx")


class TardisEngine:
    """Tardis bound to one (emulatable) target."""

    def __init__(self, build: BuildInfo, spec: SpecSet, seed: int = 0,
                 budget_cycles: int = 2_000_000,
                 max_iterations: int = 1_000_000, obs=None):
        board_spec = build.board_spec
        if not board_spec.has_emulator:
            raise UnsupportedTargetError(
                f"Tardis needs an emulator; no peripheral-accurate QEMU "
                f"model exists for {board_spec.name}")
        if build.config.os_name not in SUPPORTED_OSES:
            raise UnsupportedTargetError(
                f"Tardis has no adaptation for {build.config.os_name!r}")
        options = EngineOptions(
            seed=seed,
            budget_cycles=budget_cycles,
            max_iterations=max_iterations,
            feedback=True,                   # it is coverage-guided
            use_exception_monitor=False,     # timeout-only detection
            use_log_monitor=False,
            record_hangs_as_crashes=True,
            restore_with_reflash=True,       # VM restart == image reload
            name="tardis",
        )
        self.engine = EofEngine(build, spec.without_pseudo(), options,
                                obs=obs)

    def run(self) -> FuzzResult:
        """Fuzz to the budget."""
        return self.engine.run()


def supports(os_name: str, board: str) -> bool:
    """Table 1 capability predicate."""
    spec = BOARD_CATALOG.get(board)
    return (spec is not None and spec.has_emulator
            and os_name in SUPPORTED_OSES)
