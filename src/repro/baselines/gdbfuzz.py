"""GDBFuzz (Eisele et al., ISSTA 2023) model.

GDBFuzz fuzzes embedded *applications* on real hardware through the debug
port: inputs are opaque byte buffers fed to one entry function, and its
coverage feedback comes from a small set of **rotating hardware
breakpoints** placed on basic blocks the tool has not yet seen (derived
from static disassembly).  The breakpoint budget is whatever the silicon
provides — two comparators on an ESP32 — which is why its coverage view
is sparse and its growth slow (§5.4.2).

Reported coverage uses the same ground-truth edge meter as every other
engine; the breakpoints are only what *GDBFuzz itself* can see.
"""

from __future__ import annotations

from typing import List, Set

from repro.agent.protocol import ArgData, Call, TestProgram
from repro.baselines.buffer_base import BufferFuzzerBase
from repro.errors import UnsupportedTargetError
from repro.firmware.builder import BuildInfo
from repro.hw.boards import BOARD_CATALOG


class GdbFuzzEngine(BufferFuzzerBase):
    """GDBFuzz bound to one application entry point."""

    NAME = "gdbfuzz"

    def __init__(self, build: BuildInfo, entry_api: str, seed: int = 0,
                 budget_cycles: int = 2_000_000,
                 max_iterations: int = 1_000_000):
        super().__init__(build, seed=seed, budget_cycles=budget_cycles,
                         max_iterations=max_iterations)
        if entry_api not in build.api_order:
            raise UnsupportedTargetError(
                f"entry function {entry_api!r} is not linked into the image")
        self.entry_api = entry_api
        self.entry_id = build.api_order.index(entry_api)
        board_spec = BOARD_CATALOG[build.config.board]
        self.bp_budget = board_spec.hw_breakpoints
        # Static-analysis view: every basic block of the modules under
        # test.  Block k of a function sits at (function address + 4k) —
        # what the tool's disassembly pass would report.
        modules = set(build.config.instrument_modules or ()) or None
        self.targets: List[int] = []
        for info in build.site_table.blocks():
            sym = build.symbols.get(info.symbol)
            if sym is None or sym.module == "agent":
                continue
            if modules is not None and sym.module not in modules:
                continue
            for block in range(info.count):
                self.targets.append(sym.address + 4 * block)
        self.covered: Set[int] = set()
        self._armed: List[int] = []
        self.bp_coverage_hits = 0
        self._execs_since_hit = 0
        self.rearm_interval = 40

    # -- buffer -> program ---------------------------------------------------

    def make_program(self, data: bytes) -> TestProgram:
        """One entry-point call per chunk of the fuzzed buffer."""
        return TestProgram(calls=[
            Call(api_id=self.entry_id, args=(ArgData(chunk),))
            for chunk in self.chunk_buffer(data)])

    # -- rotating-breakpoint feedback ---------------------------------------------

    def arm_feedback(self) -> None:
        """Aim the hardware comparators at unseen basic blocks."""
        link = self.session.link
        for address in self._armed:
            link.break_delete(address)
        self._armed = []
        uncovered = [a for a in self.targets if a not in self.covered]
        self.rng.random.shuffle(uncovered)
        for address in uncovered[:self.bp_budget]:
            link.break_insert(address, "gdbfuzz-cov")
            self._armed.append(address)

    def feedback_interesting(self, event_bp_hits: List[int],
                             new_truth_edges: int) -> bool:
        """Interesting = an armed breakpoint fired (all GDBFuzz sees)."""
        hits = [a for a in event_bp_hits if a in self._armed]
        if not hits:
            self._execs_since_hit += 1
            if self._execs_since_hit >= self.rearm_interval:
                # Nothing armed is being reached: re-aim the comparators
                # at a different sample of unseen blocks.
                self._execs_since_hit = 0
                self.arm_feedback()
            return False
        for address in hits:
            self.covered.add(address)
            self.bp_coverage_hits += 1
        self._execs_since_hit = 0
        # Hit breakpoints are retired and the budget re-aimed at blocks
        # still unseen — the core GDBFuzz trick.
        self.arm_feedback()
        return True
