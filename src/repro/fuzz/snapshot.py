"""Snapshot-tier state restoration: RAM + registers, not reflash.

The paper's Algorithm 1 restores by reflashing every partition and
rebooting — correct, but ``REFLASH_CYCLES`` dominates recovery latency
on crash-heavy targets.  EmbedFuzz-style snapshot/restore is the step
change: capture the target once after a verified clean boot, then bring
it back by rewriting only what changed.

:class:`SnapshotManager` implements that tier for one debug session:

* **capture** — one batched link transaction reads all of RAM plus the
  coverage generation word; the CPU register file and a pickled image
  of the booted runtime (hardware pinned by persistent id) are taken
  through the probe-side APIs
  (:meth:`repro.hw.machine.Machine.capture_registers`,
  :meth:`repro.hw.board.Board.capture_runtime_image`).  A deterministic
  canary word is planted in the unused tail of the agent status block
  before the read, so the image carries its own integrity probe.
* **dirty tracking** — host-side and page-granular, via the
  :class:`repro.link.client.DebugLink` write log: host writes mark their
  exact pages, every resume marks the statically-known execution-dirty
  ranges (kernel heap, agent status, crash block, coverage buffer), a
  reset marks everything.
* **restore** — write back only the dirty pages plus the canary in one
  ``link.batch()``, one ``write_memory`` per contiguous run of dirty
  pages (the virtual clock still charges every page), restore the
  register file, install a runtime freshly unpickled from the image,
  then *verify*: read back the generation word and the canary.  A
  mismatch means the snapshot (or the write-back) is suspect — the
  restore fails, the recovery ladder escalates to the reflash tier, and
  after ``SUSPECT_THRESHOLD`` strikes the snapshot invalidates itself so
  the engine re-captures from a clean boot.
* **invalidation** — any flash write bumps the link's ``flash_epoch``;
  a snapshot taken against an older image refuses to restore (the RAM
  image would disagree with what the new image boots into).

Ownership: a manager is owned by exactly one engine and shares no state
across workers — campaign fleets get one manager per board (see
``repro.farm``).

Why the generation word + canary verify suffices: the substrate's RAM
only mutates through the link (which the dirty log watches) or while
the core runs (which marks the declared execution-dirty ranges, the
complete writable surface of the firmware).  The only unmodeled risks
are a torn/corrupted write-back and a stale capture — the canary
catches bit-level corruption of the write-back path, and the generation
word catches a capture that no longer matches the tracer state the
restored runtime believes in.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.ddi.session import DebugSession
from repro.errors import DebugLinkError, DebugLinkTimeout
from repro.link.client import DIRTY_PAGE_SIZE, pages_for_range
from repro.obs import NULL_OBS

# Virtual-time costs, charged to the machine's cycle clock like every
# other recovery tier.  Capture streams the whole RAM image once (a few
# hundred KB over SWD, but off the hot path); a restore writes a few
# tens of dirty KB plus the register file and the verify readback.
SNAPSHOT_CAPTURE_CYCLES = 4_000
SNAPSHOT_RESTORE_BASE_CYCLES = 600
SNAPSHOT_PAGE_WRITE_CYCLES = 8

#: Deterministic integrity word planted in the unused tail of the agent
#: status block (the agent packs 20 of the 64 reserved bytes).
SNAPSHOT_CANARY = 0x5AFE_C0DE

#: Verify-probe mismatches tolerated before the snapshot invalidates
#: itself and the engine re-captures from a verified clean boot.
SUSPECT_THRESHOLD = 2


class SnapshotManager:
    """Snapshot capture/restore bound to one debug session.

    Owned by a single engine; never shared across farm workers (each
    board gets its own manager), so no locking is required.
    """

    def __init__(self, session: DebugSession, stats=None, obs=NULL_OBS):
        self.session = session
        self.stats = stats
        self.obs = obs
        self.layout = session.build.ram_layout
        self.valid = False
        self.suspect_count = 0
        self.captures = 0
        self.restores = 0
        self.fallbacks = 0
        self.pages_written = 0
        self._ram_image: Optional[bytes] = None
        self._registers = None
        self._runtime_image = None
        self._gen_value = 0
        self._flash_epoch = -1

    # -- state ----------------------------------------------------------------

    @property
    def canary_addr(self) -> int:
        """Last word of the status block — never touched by the agent."""
        return self.layout.status_addr + self.layout.status_size - 4

    @property
    def ready(self) -> bool:
        """Can :meth:`restore` be attempted right now?

        False until a capture succeeded, after self-invalidation, and
        whenever flash moved since the capture (the RAM image predates
        the image now in flash).
        """
        return (self.valid and self._ram_image is not None
                and self.session.link.flash_epoch == self._flash_epoch)

    def invalidate(self, reason: str = "") -> None:
        """Drop the snapshot; the next capture starts from scratch."""
        if self.valid and self.obs.enabled:
            self.obs.emit("restore.snapshot.invalidate", reason=reason)
        self.valid = False

    def _exec_dirty_ranges(self) -> List[Tuple[int, int]]:
        """The complete RAM surface the firmware writes while running:
        kernel heap, agent status block, crash report block, coverage
        buffer and its generation word."""
        layout = self.layout
        ranges = [
            (layout.kernel_heap_base, layout.kernel_heap_size),
            (layout.status_addr, layout.status_size),
            (layout.crash_addr, layout.crash_size),
            (layout.cov_buf_addr, layout.cov_buf_size),
            (layout.input_buf_addr, layout.input_buf_size),
        ]
        if layout.cov_gen_addr:
            ranges.append((layout.cov_gen_addr, 4))
        return ranges

    # -- capture ---------------------------------------------------------------

    def capture(self) -> bool:
        """Snapshot the target.  Call only against a verified clean boot
        (the engine captures right after boot-chatter drain, and
        re-captures after a successful reflash-tier recovery).

        Returns True on success; a link fault leaves the manager
        not-ready and the ladder simply skips the snapshot rung.
        """
        session = self.session
        board = session.board
        link = session.link
        machine = board.machine
        started_at = machine.cycles
        gen_addr = self.layout.cov_gen_addr
        try:
            link.write_u32(self.canary_addr, SNAPSHOT_CANARY)
            with link.batch():
                ram_pending = link.read_memory(board.ram.base,
                                               board.ram.size)
                gen_pending = link.read_u32(gen_addr) if gen_addr else None
            self._ram_image = bytes(ram_pending.result())
            self._gen_value = gen_pending.result() if gen_pending else 0
        except (DebugLinkError, DebugLinkTimeout):
            self.invalidate(reason="capture-link-fault")
            return False
        self._registers = machine.capture_registers()
        self._runtime_image = board.capture_runtime_image()
        link.set_exec_dirty_ranges(self._exec_dirty_ranges())
        link.clear_dirty()
        self._flash_epoch = link.flash_epoch
        machine.tick(SNAPSHOT_CAPTURE_CYCLES)
        self.valid = True
        self.suspect_count = 0
        self.captures += 1
        if self.stats is not None:
            self.stats.snapshot_captures += 1
        if self.obs.enabled:
            self.obs.emit("restore.snapshot.capture",
                          bytes=len(self._ram_image),
                          gen=self._gen_value,
                          cycles_spent=machine.cycles - started_at)
        return True

    # -- restore ---------------------------------------------------------------

    def _dirty_runs(self) -> Tuple[List[Tuple[int, int]], int]:
        """Dirty pages clipped to RAM, merged into contiguous
        ``(addr, length)`` runs, and the number of pages they cover."""
        ram = self.session.board.ram
        link = self.session.link
        if link.dirty_all:
            pages = pages_for_range(ram.base, ram.size)
        else:
            pages = sorted(link.dirty_pages())
        runs: List[List[int]] = []
        page_count = 0
        for page in pages:
            start = max(page * DIRTY_PAGE_SIZE, ram.base)
            end = min((page + 1) * DIRTY_PAGE_SIZE, ram.base + ram.size)
            if start >= end:
                continue
            page_count += 1
            if runs and runs[-1][1] == start:
                runs[-1][1] = end
            else:
                runs.append([start, end])
        return [(start, end - start) for start, end in runs], page_count

    def restore(self) -> bool:
        """Write dirty pages + registers back; verify; True on success.

        Each contiguous run of dirty pages goes out as one
        ``write_memory``; the virtual clock still charges every page.
        A failed verify counts a suspect strike and returns False (the
        ladder escalates to reflash); ``SUSPECT_THRESHOLD`` strikes
        invalidate the snapshot entirely.
        """
        if not self.ready:
            return False
        session = self.session
        board = session.board
        link = session.link
        machine = board.machine
        started_at = machine.cycles
        runs, pages = self._dirty_runs()
        base = board.ram.base
        try:
            with link.batch():
                for addr, length in runs:
                    link.write_memory(
                        addr, self._ram_image[addr - base:
                                              addr - base + length])
                link.write_u32(self.canary_addr, SNAPSHOT_CANARY)
        except (DebugLinkError, DebugLinkTimeout):
            return self._suspect("write-back-fault")
        machine.restore_registers(self._registers)
        board.restore_runtime_image(self._runtime_image)
        if self.stats is not None:
            self.stats.snapshot_write_commands += len(runs)
            self.stats.runtime_image_bytes += len(self._runtime_image)
        # The restore rewound the tracer's generation word: the next
        # coverage drain must be a full one, exactly like after a reboot.
        link.forget_drain_state()
        machine.tick(SNAPSHOT_RESTORE_BASE_CYCLES
                     + SNAPSHOT_PAGE_WRITE_CYCLES * pages)
        if not self._verify_probe():
            return self._suspect("verify-mismatch")
        link.clear_dirty()
        self.restores += 1
        self.pages_written += pages
        self.suspect_count = 0
        spent = machine.cycles - started_at
        if self.stats is not None:
            self.stats.snapshot_restores += 1
            self.stats.snapshot_pages_written += pages
        if self.obs.enabled:
            self.obs.counter("restore.snapshot.pages").inc(pages)
            self.obs.histogram("restore.snapshot.latency").record(spent)
            self.obs.emit("restore.snapshot.restore", pages=pages,
                          cycles_spent=spent)
        return True

    def _verify_probe(self) -> bool:
        """Read back the generation word + canary and compare to capture.

        Both reads go to the target in one batch, so they see what the
        write-back produced.
        """
        link = self.session.link
        gen_addr = self.layout.cov_gen_addr
        try:
            with link.batch():
                canary_pending = link.read_u32(self.canary_addr)
                gen_pending = link.read_u32(gen_addr) if gen_addr else None
            if canary_pending.result() != SNAPSHOT_CANARY:
                return False
            if gen_pending is not None and \
                    gen_pending.result() != self._gen_value:
                return False
        except (DebugLinkError, DebugLinkTimeout):
            return False
        return True

    def _suspect(self, reason: str) -> bool:
        """One verify strike: count it, maybe self-invalidate, fail."""
        self.suspect_count += 1
        self.fallbacks += 1
        if self.stats is not None:
            self.stats.snapshot_fallbacks += 1
        if self.obs.enabled:
            self.obs.counter("restore.snapshot.fallbacks").inc()
            self.obs.emit("restore.snapshot.fallback", reason=reason,
                          strikes=self.suspect_count)
        if self.suspect_count >= SUSPECT_THRESHOLD:
            self.invalidate(reason=f"suspect-threshold:{reason}")
        return False
