"""Snapshot-tier restoration: restore-equivalence and dirty tracking.

The acceptance bar of the snapshot PR, as a test suite: fuzzing with
snapshot restores produces *byte-identical* outcomes to fuzzing with
Algorithm 1 reflash restores — same coverage frontier, same crash
signature table, same corpus digests — at every fixed seed, across the
full 5-OS matrix.  Only the recovery accounting may differ, which is
exactly what ``FuzzStats.semantic_dict(restore_invariant=True)``
projects away.

Also pins the host-side dirty-page log the restore path depends on:
overlapping writes union their pages, page-boundary straddles mark both
sides, a reset dirties everything, and a flash write invalidates the
snapshot (the RAM image predates the image now in flash).
"""

import pytest

from repro.ddi.session import open_session
from repro.fuzz.engine import EngineOptions, EofEngine
from repro.fuzz.snapshot import (
    SNAPSHOT_CANARY,
    SNAPSHOT_PAGE_WRITE_CYCLES,
    SNAPSHOT_RESTORE_BASE_CYCLES,
    SUSPECT_THRESHOLD,
    SnapshotManager,
)
from repro.fuzz.stats import FuzzStats
from repro.link.client import DIRTY_PAGE_SIZE, pages_for_range
from repro.link.codec import OP_WRITE_MEM
from repro.spec.llmgen import generate_validated_specs

from conftest import cached_build

OSES = ("freertos", "rt-thread", "zephyr", "nuttx", "pokos")

#: Equivalence runs are iteration-capped, not cycle-capped: snapshot
#: recovery is cheaper, so a cycle budget would let the snapshot run
#: execute *more* programs and the comparison would be vacuous.
ITERATIONS = 40
BUDGET = 50_000_000
SEED = 1
RESTORE_EVERY = 3


def run_matrix_engine(os_name, snapshots):
    build = cached_build(os_name)
    spec = generate_validated_specs(build)
    options = EngineOptions(seed=SEED, budget_cycles=BUDGET,
                            max_iterations=ITERATIONS,
                            snapshots=snapshots,
                            restore_every=RESTORE_EVERY)
    engine = EofEngine(build, spec, options)
    result = engine.run()
    return engine, result


@pytest.fixture(scope="module", params=OSES)
def mode_pair(request):
    """One OS fuzzed twice from the same seed: snapshot restores on
    vs the historical reflash-only ladder."""
    return (run_matrix_engine(request.param, snapshots=True),
            run_matrix_engine(request.param, snapshots=False))


class TestRestoreEquivalence:
    def test_semantic_results_byte_identical(self, mode_pair):
        (_, snap), (_, flash) = mode_pair
        assert snap.stats.semantic_dict(restore_invariant=True) == \
            flash.stats.semantic_dict(restore_invariant=True)

    def test_coverage_frontiers_identical(self, mode_pair):
        (_, snap), (_, flash) = mode_pair
        assert snap.coverage.edges == flash.coverage.edges
        assert snap.edges == flash.edges

    def test_crash_signature_tables_identical(self, mode_pair):
        (_, snap), (_, flash) = mode_pair
        snap_sigs = sorted(r.signature()
                           for r in snap.crash_db.unique_crashes())
        flash_sigs = sorted(r.signature()
                            for r in flash.crash_db.unique_crashes())
        assert snap_sigs == flash_sigs

    def test_corpus_digests_identical(self, mode_pair):
        (snap_eng, _), (flash_eng, _) = mode_pair
        assert snap_eng.corpus.digests() == flash_eng.corpus.digests()

    def test_comparison_is_not_vacuous(self, mode_pair):
        # Both modes actually exercised their restore tier: the snapshot
        # run wrote pages back, the reflash run ran Algorithm 1.
        (snap_eng, _), (flash_eng, _) = mode_pair
        assert snap_eng.stats.snapshot_restores > 0
        assert snap_eng.stats.snapshot_pages_written > 0
        assert flash_eng.stats.restorations > 0
        assert flash_eng.stats.snapshot_restores == 0


class TestDirtyPageLog:
    def test_pages_for_range_straddles_the_boundary(self):
        pages = pages_for_range(DIRTY_PAGE_SIZE - 2, 4)
        assert list(pages) == [0, 1]
        assert list(pages_for_range(0, 1)) == [0]
        assert list(pages_for_range(DIRTY_PAGE_SIZE, 1)) == [1]
        assert list(pages_for_range(0, 0)) == []

    def test_overlapping_writes_union_their_pages(self):
        session = open_session(cached_build("freertos"))
        link = session.link
        link.clear_dirty()
        base = session.board.ram.base
        link.write_memory(base, b"\xaa" * 64)
        link.write_memory(base + 32, b"\xbb" * DIRTY_PAGE_SIZE)
        expected = set(pages_for_range(base, 64)) \
            | set(pages_for_range(base + 32, DIRTY_PAGE_SIZE))
        assert link.dirty_pages() == expected

    def test_write_u32_marks_exactly_one_page(self):
        session = open_session(cached_build("freertos"))
        link = session.link
        link.clear_dirty()
        addr = session.board.ram.base + 4 * DIRTY_PAGE_SIZE + 8
        link.write_u32(addr, 0xDEADBEEF)
        assert link.dirty_pages() == set(pages_for_range(addr, 4))

    def test_reset_dirties_everything(self):
        session = open_session(cached_build("freertos"))
        link = session.link
        link.clear_dirty()
        assert not link.dirty_all
        session.reboot()
        assert link.dirty_all
        link.clear_dirty()
        assert not link.dirty_all


class TestSnapshotManager:
    def make_manager(self, os_name="freertos"):
        session = open_session(cached_build(os_name))
        session.drain_uart()
        manager = SnapshotManager(session, stats=FuzzStats())
        return session, manager

    def test_capture_then_restore_is_byte_identical(self):
        session, manager = self.make_manager()
        assert manager.capture()
        image = session.board.ram.snapshot()
        # Scribble over the kernel heap through the link, like a
        # hostile program would.
        layout = session.build.ram_layout
        session.link.write_memory(layout.kernel_heap_base,
                               b"\x5a" * 4096)
        assert session.board.ram.snapshot() != image
        assert manager.restore()
        assert session.board.ram.snapshot() == image

    def test_restore_rewinds_only_dirty_pages(self):
        session, manager = self.make_manager()
        assert manager.capture()
        layout = session.build.ram_layout
        session.link.write_u32(layout.kernel_heap_base, 0x1234)
        before = manager.pages_written
        assert manager.restore()
        written = manager.pages_written - before
        # One touched page, not the whole RAM image.
        assert 0 < written < session.board.ram.size // DIRTY_PAGE_SIZE

    def test_flash_write_invalidates_the_snapshot(self):
        session, manager = self.make_manager()
        assert manager.capture()
        assert manager.ready
        flash = session.board.flash
        session.link.flash_write(flash.base + flash.size - 64,
                                 b"\xff" * 64, verify=False)
        assert not manager.ready
        assert not manager.restore()
        # A fresh capture against the new flash epoch re-arms it.
        assert manager.capture()
        assert manager.ready

    def test_snapshot_survives_a_reboot(self):
        # The captured image *is* the deterministic post-boot state, so
        # a reboot (which marks all of RAM dirty) does not invalidate
        # it — the restore just writes every page back.
        session, manager = self.make_manager()
        assert manager.capture()
        image = session.board.ram.snapshot()
        session.reboot()
        session.drain_uart()
        assert manager.ready
        assert manager.restore()
        assert session.board.ram.snapshot() == image

    def test_corrupt_image_fails_verify_and_self_invalidates(self):
        session, manager = self.make_manager()
        assert manager.capture()
        # Corrupt the captured generation word so every write-back
        # resurrects a state the verify probe must reject.
        manager._gen_value ^= 0xFFFF
        layout = session.build.ram_layout
        for strike in range(1, SUSPECT_THRESHOLD + 1):
            session.link.write_u32(layout.kernel_heap_base, strike)
            assert not manager.restore()
            assert manager.suspect_count == strike
        assert not manager.valid
        assert not manager.ready
        assert manager.fallbacks == SUSPECT_THRESHOLD
        assert manager.stats.snapshot_fallbacks == SUSPECT_THRESHOLD

    def test_canary_is_planted_and_checked(self):
        session, manager = self.make_manager()
        assert manager.capture()
        assert session.link.read_u32(manager.canary_addr) == \
            SNAPSHOT_CANARY

    def test_restored_runtime_references_live_hardware(self):
        session, manager = self.make_manager()
        board = session.board
        assert manager.capture()
        assert manager.restore()
        runtime = board.runtime
        assert runtime.board is board
        assert runtime.ctx.board is board
        assert runtime.ctx.ram is board.ram
        assert runtime.ctx.machine is board.machine

    def test_restores_from_one_image_are_independent(self):
        session, manager = self.make_manager()
        board = session.board
        pristine_ticks = board.runtime.kernel.tick_count
        pristine_handles = set(board.runtime.kernel.handles)
        assert manager.capture()
        assert manager.restore()
        first = board.runtime
        first.kernel.tick_count += 1000
        first.kernel.handles[max(pristine_handles) + 1] = object()
        assert manager.restore()
        second = board.runtime
        assert second is not first
        assert second.kernel is not first.kernel
        assert second.kernel.tick_count == pristine_ticks
        assert set(second.kernel.handles) == pristine_handles

    def test_write_back_is_one_command_per_dirty_run(self, monkeypatch):
        session, manager = self.make_manager()
        link = session.link
        machine = session.board.machine
        assert manager.capture()
        heap = session.build.ram_layout.kernel_heap_base
        first = (heap, 2 * DIRTY_PAGE_SIZE)
        second = (heap + 8 * DIRTY_PAGE_SIZE, 4)
        for addr, length in (first, second):
            link.write_memory(addr, b"\x5a" * length)
        pages = len(set(pages_for_range(*first))
                    | set(pages_for_range(*second)))
        sent = []
        transact = link.transport.transact

        def counting_transact(commands):
            sent.extend(cmd.op for cmd in commands)
            return transact(commands)

        monkeypatch.setattr(link.transport, "transact", counting_transact)
        started_at = machine.cycles
        assert manager.restore()
        assert sent.count(OP_WRITE_MEM) == 2
        assert manager.stats.snapshot_write_commands == 2
        assert manager.pages_written == pages
        assert manager.stats.snapshot_pages_written == pages
        assert machine.cycles - started_at == \
            SNAPSHOT_RESTORE_BASE_CYCLES + SNAPSHOT_PAGE_WRITE_CYCLES * pages

