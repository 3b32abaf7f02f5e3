"""repro.chaos: deterministic fault injection for the debug link.

Covers the fault-plan reproducibility contract (per-class RNG streams),
each ChaosLink hook at rate 1.0 against a live session, the engine-level
chaos matrix (every shipped profile either finishes its budget or
quarantines loudly), and the byte-for-byte determinism of the recovery
event stream."""

import pytest

from repro.chaos import (
    FAULT_CLASSES,
    FaultPlan,
    FaultProfile,
    PROFILES,
    get_profile,
    install_chaos,
    uninstall_chaos,
)
from repro.cli import main as cli_main
from repro.ddi.session import open_session
from repro.errors import DebugLinkError, DebugLinkTimeout, RecoveryExhausted
from repro.fuzz.engine import EngineOptions, EofEngine
from repro.obs import Observability, RingBufferSink
from repro.spec.llmgen import generate_validated_specs

from conftest import cached_build


def decisions(plan: FaultPlan, fault: str, n: int = 200):
    return [plan.should(fault) for _ in range(n)]


class TestFaultPlan:
    def test_same_seed_same_profile_same_schedule(self):
        profile = get_profile("field")
        a = FaultPlan(profile, seed=11)
        b = FaultPlan(profile, seed=11)
        for fault in profile.active_classes():
            assert decisions(a, fault) == decisions(b, fault), fault

    def test_different_seeds_diverge(self):
        profile = get_profile("boot-flaky")
        a = FaultPlan(profile, seed=1)
        b = FaultPlan(profile, seed=2)
        assert decisions(a, "boot_fail") != decisions(b, "boot_fail")

    def test_streams_are_independent(self):
        # Consulting one class never perturbs another: boot_fail draws
        # with and without interleaved link_timeout draws are identical.
        profile = get_profile("field")
        quiet = FaultPlan(profile, seed=5)
        noisy = FaultPlan(profile, seed=5)
        quiet_seq = decisions(quiet, "boot_fail", 100)
        noisy_seq = []
        for _ in range(100):
            noisy.should("link_timeout")
            noisy.should("read_bitflip")
            noisy_seq.append(noisy.should("boot_fail"))
        assert quiet_seq == noisy_seq

    def test_zero_rate_never_fires_and_counts_nothing(self):
        plan = FaultPlan(get_profile("boot-flaky"), seed=3)
        assert not any(decisions(plan, "probe_drop", 500))
        assert plan.injected["probe_drop"] == 0
        assert plan.total_injected() == sum(plan.snapshot().values())

    def test_rate_one_always_fires(self):
        plan = FaultPlan(get_profile("dead-board"), seed=9)
        assert all(decisions(plan, "boot_fail", 50))
        assert plan.injected["boot_fail"] == 50

    def test_flip_bit_changes_exactly_one_bit(self):
        plan = FaultPlan(get_profile("field"), seed=4)
        data = bytes(range(64))
        flipped = plan.flip_bit("read_bitflip", data)
        assert len(flipped) == len(data)
        delta = [a ^ b for a, b in zip(data, flipped) if a != b]
        assert len(delta) == 1 and bin(delta[0]).count("1") == 1

    def test_flip_u32_changes_exactly_one_bit(self):
        plan = FaultPlan(get_profile("field"), seed=4)
        value = 0x1234_5678
        assert bin(value ^ plan.flip_u32("read_bitflip",
                                         value)).count("1") == 1

    def test_garble_damages_one_character(self):
        plan = FaultPlan(get_profile("link-flaky"), seed=6)
        line = "panic: assertion failed"
        garbled = plan.garble_text("uart_garble", line)
        assert garbled != line and len(garbled) == len(line)
        assert "\N{REPLACEMENT CHARACTER}" in garbled

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError, match="unknown chaos profile"):
            get_profile("volcanic")

    def test_shipped_profiles_are_well_formed(self):
        assert get_profile("none").active_classes() == ()
        for name, profile in PROFILES.items():
            assert profile.name == name
            for fault in FAULT_CLASSES:
                assert 0.0 <= profile.rate_of(fault) <= 1.0, (name, fault)


def chaos_session(os_name="freertos", **rates):
    """A live session with a rate-1.0 (or custom) profile installed."""
    session = open_session(cached_build(os_name))
    profile = FaultProfile(name="test", **rates)
    link = install_chaos(session, FaultPlan(profile, seed=1))
    return session, link


class TestChaosLinkHooks:
    def test_probe_drop_raises_and_latches_until_reset(self):
        session, _ = chaos_session(probe_drop_rate=1.0)
        with pytest.raises(DebugLinkTimeout, match="probe dropped"):
            session.link.read_pc()
        assert session.board.link_lost
        # Latched: even ops the plan would spare now time out.
        uninstall_chaos(session)
        with pytest.raises(DebugLinkTimeout):
            session.link.read_u32(session.board.ram.base)
        session.board.reset()
        assert not session.board.link_lost
        session.link.read_pc()  # link is back

    def test_transient_timeout_does_not_latch(self):
        session, _ = chaos_session(link_timeout_rate=1.0)
        with pytest.raises(DebugLinkTimeout, match="transient"):
            session.link.read_pc()
        assert not session.board.link_lost
        uninstall_chaos(session)
        session.link.read_pc()  # nothing latched

    def test_read_bitflip_is_off_by_one_bit(self):
        session, _ = chaos_session(read_bitflip_rate=1.0)
        address = session.build.ram_layout.input_buf_addr
        truth = session.board.memory.read(address, 32)
        seen = session.link.read_memory(address, 32)
        delta = [a ^ b for a, b in zip(truth, seen) if a != b]
        assert len(delta) == 1 and bin(delta[0]).count("1") == 1

    def test_flash_corruption_fails_verify_readback(self):
        session, _ = chaos_session(flash_corrupt_rate=1.0)
        with pytest.raises(DebugLinkError, match="verify failed"):
            session.flash(b"\xa5" * 64, 0x400)

    def test_uart_drop_loses_lines(self):
        session, _ = chaos_session(uart_drop_rate=1.0)
        session.board.uart.putline("panic: you never saw this")
        assert session.drain_uart() == []

    def test_uart_garble_damages_lines_in_place(self):
        session, _ = chaos_session(uart_garble_rate=1.0)
        session.board.uart.putline("assert failed: q->head != NULL")
        lines = session.drain_uart()  # boot chatter + our line, all damaged
        assert lines, "garble must deliver (unlike drop)"
        assert all("\N{REPLACEMENT CHARACTER}" in line for line in lines)
        assert len(lines[-1]) == len("assert failed: q->head != NULL")

    def test_boot_fail_parks_the_reboot(self):
        session, _ = chaos_session(boot_fail_rate=1.0)
        session.reboot()
        assert session.board.boot_failed
        assert session.board.runtime is None

    def test_uninstall_restores_the_clean_path(self):
        session, _ = chaos_session(link_timeout_rate=1.0)
        uninstall_chaos(session)
        assert session.link.transport.chaos is None
        assert session.board.chaos is None
        session.link.read_pc()


# -- engine-level chaos matrix ------------------------------------------------


class GuardedEngine(EofEngine):
    """EofEngine that proves the liveness invariant on every test case:
    programs only ever run on a board whose last (re)boot succeeded."""

    def _drive(self, program, first_halt):
        board = self.session.board
        assert not board.boot_failed, "executing on a board that never booted"
        assert board.runtime is not None
        super()._drive(program, first_halt)


def make_chaos_engine(profile, seed=2, budget=300_000, obs=None,
                      cls=GuardedEngine, snapshots=True):
    build = cached_build("pokos", "qemu-virt")
    spec = generate_validated_specs(build)
    options = EngineOptions(seed=seed, budget_cycles=budget,
                            chaos_profile=profile, snapshots=snapshots)
    return cls(build, spec, options, obs=obs)


@pytest.mark.chaos
@pytest.mark.parametrize("profile", ["link-flaky", "flash-corrupting",
                                     "boot-flaky", "probe-drop", "field"])
def test_chaos_matrix_finishes_or_quarantines(profile):
    engine = make_chaos_engine(profile)
    try:
        result = engine.run()
    except RecoveryExhausted:
        # Loud quarantine is an acceptable outcome under injected
        # faults; silent wedges and dead-board fuzzing are not.
        assert engine.stats.recovery_failures == 1
    else:
        budget = engine.options.budget_cycles
        assert engine.session.board.machine.cycles >= budget
        assert result.stats.recovery_failures == 0


@pytest.mark.chaos
def test_chaos_off_by_default():
    engine = make_chaos_engine(None, budget=150_000)
    engine.run()
    assert engine.chaos is None
    assert engine.session.link.transport.chaos is None


@pytest.mark.chaos
def test_dead_board_exhausts_the_ladder():
    engine = make_chaos_engine("dead-board", snapshots=False)
    engine._attach()
    with pytest.raises(RecoveryExhausted) as exc:
        engine._recover()
    assert "quarantined" in str(exc.value)
    # The climb visited every rung above the crash entry point.
    assert set(exc.value.rungs) == {"reboot", "reflash", "reattach"}
    assert engine.stats.recovery_failures == 1
    assert engine.session.board.boot_failed  # and stayed dead


@pytest.mark.chaos
def test_snapshot_rung_sidesteps_a_broken_reset_path():
    # The snapshot tier restores over the debug link without ever
    # resetting the core, so a board whose reset logic is gone (every
    # reboot parks at the vector) is still recoverable after a crash —
    # the reflash tax *and* the dead reset path are both skipped.
    engine = make_chaos_engine("dead-board")
    engine._attach()
    engine._recover()
    assert engine.stats.snapshot_restores == 1
    assert engine.stats.reboots == 0
    assert engine.stats.recovery_failures == 0
    assert not engine.session.board.boot_failed


@pytest.mark.chaos
def test_recovery_event_stream_is_deterministic():
    def recovery_stream():
        ring = RingBufferSink()
        obs = Observability(run_id="chaos-determinism")
        obs.attach(ring)
        engine = make_chaos_engine("field", seed=7, budget=250_000, obs=obs)
        try:
            engine.run()
        except RecoveryExhausted:
            pass
        return [(event.name, event.cycles, sorted(event.fields.items()))
                for event in ring.events
                if event.name.startswith(("recovery.", "chaos."))]

    first, second = recovery_stream(), recovery_stream()
    assert first, "profile 'field' injected nothing; matrix is vacuous"
    assert first == second


@pytest.mark.chaos
class TestChaosCli:
    def test_run_with_chaos_profile(self, capsys):
        code = cli_main(["run", "--target", "pokos", "--budget", "250000",
                         "--seed", "2", "--chaos", "link-flaky"])
        assert code in (0, 2)
        out = capsys.readouterr().out
        assert "chaos link-flaky" in out

    def test_unknown_profile_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["run", "--target", "pokos", "--chaos", "volcanic"])

    def test_chaos_seed_decouples_fault_stream(self):
        engine = make_chaos_engine("boot-flaky")
        engine.options.chaos_seed = 99
        engine._attach()
        assert engine.chaos.plan.seed == 99
        assert engine.chaos.plan.profile.name == "boot-flaky"
