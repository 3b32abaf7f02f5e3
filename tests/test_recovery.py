"""The recovery-escalation ladder and its regression fixes.

Pin the satellites of the robustness PR: the ladder never re-arms a
board whose restore failed (the old ``_salvage`` bug), reflash cycle
accounting charges by partitions actually flashed, execute-path link
timeouts feed the liveness watchdog, the heap probe survives a dead
link, and ``DebugSession.reattach`` clears latched probe loss."""

import pytest

from repro.ddi.session import open_session
from repro.errors import RecoveryExhausted
from repro.fuzz.engine import EngineOptions, EofEngine
from repro.fuzz.health import HeapHealthProbe
from repro.fuzz.restore import (
    MANUAL_INTERVENTION_CYCLES,
    REFLASH_CYCLES,
    RETRY_BACKOFF_CYCLES,
    RecoveryLadder,
    SETTLE_CYCLES,
    StateRestoration,
)
from repro.fuzz.snapshot import SUSPECT_THRESHOLD
from repro.fuzz.stats import FuzzStats
from repro.fuzz.watchdog import INT_MIN, LivenessWatchdog
from repro.obs import Observability, RingBufferSink
from repro.spec.llmgen import generate_validated_specs

from conftest import cached_build


def fresh_session(os_name="freertos"):
    return open_session(cached_build(os_name))


def destroy_flash(session):
    """Kill the image header + kernel so the next reboot fails."""
    flash = session.board.flash
    flash.write(flash.base, b"\x00" * 64)
    kernel = next(p for p in session.build.partitions
                  if p.name == "kernel")
    flash.write(flash.base + kernel.offset, b"\x00" * 64)


def make_ladder(session, **kwargs):
    kwargs.setdefault("stats", FuzzStats())
    return RecoveryLadder(session, StateRestoration(session), **kwargs)


class TestRecoveryLadder:
    def test_healthy_board_recovers_on_first_retry(self):
        session = fresh_session()
        ladder = make_ladder(session)
        before = session.board.machine.cycles
        assert ladder.recover(start="retry", reason="glitch") == "retry"
        # One backoff, no reboot, no reflash.
        assert session.board.machine.cycles - before == RETRY_BACKOFF_CYCLES
        assert ladder.stats.recoveries == 1
        assert ladder.stats.reboots == 0

    def test_destroyed_flash_climbs_to_reflash(self):
        session = fresh_session()
        destroy_flash(session)
        session.reboot()
        assert session.board.boot_failed
        ladder = make_ladder(session)
        assert ladder.recover(start="retry", reason="test") == "reflash"
        assert not session.board.boot_failed
        assert ladder.stats.restorations == 1
        assert ladder.stats.recoveries == 1

    def test_exhaustion_is_loud_and_ordered(self):
        session = fresh_session()
        destroy_flash(session)
        session.reboot()
        ladder = make_ladder(session)
        ladder.restoration.restore = lambda: False
        session.reattach = lambda: False
        with pytest.raises(RecoveryExhausted) as exc:
            ladder.recover(start="retry", reason="dead")
        # Rungs were attempted cheapest-first, each up to its bound.
        assert list(exc.value.rungs) == (
            ["retry"] * ladder.attempts["retry"]
            + ["reboot"] * ladder.attempts["reboot"]
            + ["reflash"] * ladder.attempts["reflash"]
            + ["reattach"] * ladder.attempts["reattach"])
        assert ladder.stats.recovery_failures == 1

    def test_failed_restore_never_rearms_a_dead_board(self):
        # Regression: the old _salvage ignored restore()'s return value
        # and re-armed breakpoints on a board that never booted.
        session = fresh_session()
        destroy_flash(session)
        session.reboot()
        rearmed = []
        ladder = make_ladder(session, rearm=lambda: rearmed.append(True))
        ladder.restoration.restore = lambda: False
        session.reattach = lambda: False
        with pytest.raises(RecoveryExhausted):
            ladder.recover(start="retry", reason="dead")
        assert rearmed == [], "re-armed breakpoints on a dead board"

    def test_rearm_runs_only_after_a_verified_boot(self):
        session = fresh_session()
        destroy_flash(session)
        session.reboot()
        rearmed = []
        ladder = make_ladder(session, rearm=lambda: rearmed.append(
            session.board.boot_failed))
        assert ladder.recover(start="retry") == "reflash"
        assert rearmed == [False]  # called once, with the board alive

    def test_no_reflash_mode_pays_the_manual_gap(self):
        session = fresh_session()
        destroy_flash(session)
        session.reboot()
        ladder = make_ladder(session, use_reflash=False)
        before = session.board.machine.cycles
        assert ladder.recover(start="reflash") == "reflash"
        assert session.board.machine.cycles - before \
            >= MANUAL_INTERVENTION_CYCLES + REFLASH_CYCLES

    def test_ladder_resets_watchdog_on_success(self):
        session = fresh_session()
        watchdog = LivenessWatchdog(session)
        assert watchdog.check()          # seeds PC history
        assert not watchdog.check()      # parked -> stall trip
        ladder = make_ladder(session, watchdog=watchdog)
        assert ladder.recover(start="reboot") == "reboot"
        assert watchdog.last_pc == INT_MIN  # history forgotten


def reboot_cost(session) -> int:
    """Cycles one warm reboot costs on this build (ROM + kernel init)."""
    before = session.board.machine.cycles
    session.reboot()
    return session.board.machine.cycles - before


class TestReflashAccounting:
    def test_restore_charges_exactly_the_reflash_budget(self):
        session = fresh_session()
        boot = reboot_cost(session)
        restoration = StateRestoration(session)
        before = session.board.machine.cycles
        assert restoration.restore()
        delta = session.board.machine.cycles - before
        assert delta == REFLASH_CYCLES + SETTLE_CYCLES + boot

    def test_missing_partition_payload_does_not_shrink_the_charge(self):
        # Regression: per-partition ticks used to divide REFLASH_CYCLES
        # by *all* partition specs but only tick per partition actually
        # flashed, undercharging when a payload was absent.
        session = fresh_session()
        boot = reboot_cost(session)
        restoration = StateRestoration(session)
        del restoration._files["appfs"]
        before = session.board.machine.cycles
        assert restoration.restore()
        delta = session.board.machine.cycles - before
        assert delta == REFLASH_CYCLES + SETTLE_CYCLES + boot


def attached_engine(budget=200_000, seed=2, os_name="pokos",
                    board="qemu-virt", obs=None, **option_kwargs):
    build = cached_build(os_name, board)
    spec = generate_validated_specs(build)
    options = EngineOptions(seed=seed, budget_cycles=budget,
                            **option_kwargs)
    engine = EofEngine(build, spec, options, obs=obs)
    engine._attach()
    return engine


class TestEngineRecoveryPaths:
    def test_execute_timeout_feeds_the_watchdog(self):
        # Regression: _execute_program counted link_timeouts but never
        # told the watchdog, so stats and timeout_trips drifted apart.
        engine = attached_engine()
        engine.session.board.link_lost = True
        program = engine.generator.generate(max_calls=3)
        engine._execute_program(program)
        assert engine.stats.link_timeouts == 1
        assert engine.watchdog.timeout_trips == 1
        # And the ladder brought the board back (reboot clears the latch).
        assert engine.session.board.runtime is not None
        assert not engine.session.board.link_lost

    def test_salvage_with_dead_restore_raises_not_rearms(self):
        engine = attached_engine()
        destroy_flash(engine.session)
        engine.session.reboot()
        rearmed = []
        engine.ladder.rearm = lambda: rearmed.append(True)
        engine.restoration.restore = lambda: False
        engine.session.reattach = lambda: False
        with pytest.raises(RecoveryExhausted):
            engine._salvage()
        assert rearmed == []
        assert engine.stats.recovery_failures == 1

    def test_recover_crash_path_restores_the_snapshot(self):
        # With the snapshot tier armed (the default), a crash is undone
        # by writing the captured boot state back — no reboot at all.
        engine = attached_engine()
        engine._recover()
        assert engine.stats.snapshot_restores == 1
        assert engine.stats.reboots == 0
        assert engine.stats.recoveries == 1

    def test_recover_crash_path_starts_at_reboot_without_snapshots(self):
        engine = attached_engine(snapshots=False)
        before_reboots = engine.stats.reboots
        engine._recover()
        assert engine.stats.reboots == before_reboots + 1
        assert engine.stats.recoveries == 1
        assert engine.stats.snapshot_restores == 0


class TestSnapshotFallback:
    """A corrupted write-back must be *detected* (verify probe) and
    *contained* (escalate past the snapshot rung) — never silently fuzz
    a board whose restored state is wrong."""

    def corrupt(self, engine):
        # Flip the captured generation word: the next write-back then
        # resurrects a state the verify probe must reject, exactly as
        # if the restore path had corrupted RAM in transit.
        engine.snapshot._gen_value ^= 0xFFFF

    def test_corrupt_writeback_falls_back_to_the_reboot_rung(self):
        obs = Observability(run_id="snapshot-fallback")
        obs.attach(RingBufferSink())
        engine = attached_engine(obs=obs)
        self.corrupt(engine)
        engine._recover()
        counters = obs.metrics.counters
        assert counters["recovery.rung.snapshot.attempts"].value == 1
        assert "recovery.rung.snapshot.successes" not in counters
        assert counters["recovery.rung.reboot.successes"].value == 1
        assert engine.stats.snapshot_fallbacks == 1
        assert engine.stats.snapshot_restores == 0
        assert engine.stats.reboots == 1
        assert engine.stats.recoveries == 1

    def test_suspect_threshold_invalidates_then_recaptures(self):
        engine = attached_engine()
        manager = engine.snapshot
        self.corrupt(engine)
        engine._recover()
        assert manager.suspect_count == 1
        assert manager.ready  # one strike: still armed
        engine._recover()
        # The second strike crossed SUSPECT_THRESHOLD: the snapshot
        # self-invalidated and the engine re-captured from the verified
        # post-recovery boot on the way out of the ladder.
        assert engine.stats.snapshot_fallbacks == SUSPECT_THRESHOLD
        assert manager.captures == 2
        assert manager.suspect_count == 0
        assert manager.ready
        # The fresh capture is trustworthy again: the next crash is
        # undone by the snapshot rung, no reboot.
        reboots = engine.stats.reboots
        engine._recover()
        assert engine.stats.snapshot_restores == 1
        assert engine.stats.reboots == reboots

    def test_permanent_fallback_keeps_the_frontier(self):
        # Even when *every* restore attempt fails verify, the run's
        # outcomes match a reflash-only run bit for bit: the fallback
        # path *is* the reflash path.
        def run(corrupted):
            build = cached_build("freertos")
            spec = generate_validated_specs(build)
            options = EngineOptions(seed=3, budget_cycles=50_000_000,
                                    max_iterations=25, restore_every=3,
                                    snapshots=corrupted)
            engine = EofEngine(build, spec, options)
            if corrupted:
                engine.start()
                manager = engine.snapshot
                real_capture = manager.capture

                def corrupt_capture():
                    ok = real_capture()
                    if ok:
                        manager._gen_value ^= 0xFFFF
                    return ok

                manager.capture = corrupt_capture
                manager._gen_value ^= 0xFFFF
            result = engine.run()
            return engine, result

        snap_eng, snap = run(corrupted=True)
        flash_eng, flash = run(corrupted=False)
        assert snap_eng.stats.snapshot_restores == 0
        assert snap_eng.stats.snapshot_fallbacks > 0
        assert snap.stats.semantic_dict(restore_invariant=True) == \
            flash.stats.semantic_dict(restore_invariant=True)
        assert snap.coverage.edges == flash.coverage.edges


@pytest.mark.chaos
class TestSnapshotUnderChaos:
    def test_field_profile_completes_with_consistent_accounting(self):
        build = cached_build("pokos", "qemu-virt")
        spec = generate_validated_specs(build)
        options = EngineOptions(seed=5, budget_cycles=400_000,
                                restore_every=2, chaos_profile="field")
        engine = EofEngine(build, spec, options)
        try:
            engine.run()
        except RecoveryExhausted:
            # Loud quarantine is acceptable under injected faults.
            assert engine.stats.recovery_failures == 1
            return
        manager = engine.snapshot
        assert engine.stats.snapshot_captures == manager.captures
        assert engine.stats.snapshot_restores == manager.restores
        assert engine.stats.snapshot_fallbacks == manager.fallbacks
        assert engine.stats.snapshot_pages_written == manager.pages_written
        assert engine.stats.recovery_failures == 0


class TestHeapProbeUnderLinkLoss:
    def test_probe_survives_a_dead_link(self):
        session = fresh_session()
        probe = HeapHealthProbe(session, every_n_programs=1)
        session.board.link_lost = True
        assert probe.probe() is None
        assert probe.probes == 0  # the failed read was not a probe

    def test_probe_recovers_after_reset(self):
        session = fresh_session()
        probe = HeapHealthProbe(session, every_n_programs=1)
        session.board.link_lost = True
        assert probe.maybe_probe() is None
        session.board.reset()
        session.drain_uart()
        assert probe.maybe_probe() is None  # healthy heap, live link
        assert probe.probes == 1


class TestReattach:
    def test_reattach_clears_latched_probe_loss(self):
        session = fresh_session()
        session.board.link_lost = True
        boots_before = session.board.boot_count
        assert session.reattach()
        assert not session.board.link_lost
        assert session.board.boot_count == boots_before + 1
        session.link.read_pc()  # the new probe session is live

    def test_reattach_reports_failed_boot(self):
        session = fresh_session()
        destroy_flash(session)
        assert not session.reattach()
        assert session.board.boot_failed


class TestStatsRoundTrip:
    def test_new_counters_survive_serialization(self):
        stats = FuzzStats(recoveries=3, reattaches=1, recovery_failures=1)
        back = FuzzStats.from_dict(stats.to_dict())
        assert back.recoveries == 3
        assert back.reattaches == 1
        assert back.recovery_failures == 1
