"""The heap-health probe extension and the one-shot reproducer runner."""

import pytest

from repro.ddi.session import open_session
from repro.firmware.builder import build_firmware
from repro.fuzz.engine import EngineOptions, EofEngine
from repro.fuzz.health import (
    HeapHealthProbe,
    SMEM_GUARD,
    SMEM_NAME_FIELD,
    check_gran,
    check_heap4,
    check_smem,
)
from repro.fuzz.oneshot import Outcome, build_program, execute_once
from repro.fuzz.targets import get_target
from repro.spec.llmgen import generate_validated_specs

from conftest import cached_build


class TestHealthCheckers:
    def test_fresh_rtthread_heap_is_healthy(self):
        session = open_session(cached_build("rt-thread"))
        probe = HeapHealthProbe(session, every_n_programs=1)
        assert probe.supported
        assert probe.probe() is None
        assert probe.probes == 1

    def test_probe_detects_silent_guard_smash(self):
        session = open_session(cached_build("rt-thread"))
        probe = HeapHealthProbe(session, every_n_programs=1)
        layout = session.build.ram_layout
        # Smash the guard word over the debug link: no panic, no log
        # line — exactly what the crash monitors cannot see.
        session.link.write_u32(layout.kernel_heap_base + SMEM_NAME_FIELD,
                               0xBAD0BAD0)
        defect = probe.probe()
        assert defect is not None and "guard" in defect
        assert probe.defects_found == 1

    def test_probe_detects_broken_block_chain(self):
        session = open_session(cached_build("rt-thread"))
        probe = HeapHealthProbe(session, every_n_programs=1)
        base = session.build.ram_layout.kernel_heap_base
        session.link.write_u32(base + 24, 0xFFFF0000)  # first block header
        assert probe.probe() is not None

    def test_fresh_freertos_heap_is_healthy(self):
        session = open_session(cached_build("freertos"))
        assert HeapHealthProbe(session).probe() is None

    def test_fresh_nuttx_gran_is_healthy(self):
        session = open_session(cached_build("nuttx", board="stm32h745"))
        assert HeapHealthProbe(session).probe() is None

    def test_zephyr_not_probeable(self):
        session = open_session(cached_build("zephyr"))
        probe = HeapHealthProbe(session)
        assert not probe.supported
        assert probe.probe() is None

    def test_checkers_reject_garbage(self):
        assert check_smem(b"\x00" * 64) is not None
        assert check_heap4((1000).to_bytes(4, "little") + b"\x00" * 60) \
            is not None
        assert check_gran(b"\x00" * 1024) is not None

    def test_maybe_probe_respects_interval(self):
        session = open_session(cached_build("rt-thread"))
        probe = HeapHealthProbe(session, every_n_programs=3)
        assert probe.maybe_probe() is None  # countdown 2
        assert probe.maybe_probe() is None  # countdown 1
        probe.maybe_probe()                 # fires
        assert probe.probes == 1


class TestEngineIntegration:
    def test_probe_runs_inside_the_engine(self):
        build = build_firmware(get_target("rt-thread").build_config())
        spec = generate_validated_specs(build)
        engine = EofEngine(build, spec, EngineOptions(
            seed=4, budget_cycles=600_000, heap_probe_every=4))
        engine.run()
        assert engine.heap_probe is not None
        assert engine.heap_probe.probes > 0


class TestOneshot:
    def test_build_program_resolves_names_and_refs(self):
        build = cached_build("freertos")
        program = build_program(build, [
            ("xQueueCreate", (2, 8)),
            ("xQueueSend", (("ref", 0), b"data", 0)),
        ])
        assert program.calls[0].api_id == \
            build.api_order.index("xQueueCreate")

    def test_completed_run(self):
        outcome = execute_once(get_target("freertos"),
                               [("uxTaskGetNumberOfTasks", ())])
        assert outcome.completed
        assert not outcome.crashed

    def test_rejected_program_is_not_completed(self):
        build = cached_build("freertos")
        outcome = execute_once(get_target("freertos"),
                               [("xQueueCreate", (2, 8, 9, 9, 9, 9, 9))],
                               build=build)
        # Arity mismatch is an EINVAL *return*, so execution completes;
        # a truly malformed wire program is tested in test_agent.  Here
        # just assert no crash leaked.
        assert not outcome.crashed

    def test_session_reuse(self):
        build = cached_build("freertos")
        first = execute_once(get_target("freertos"),
                             [("xTaskGetTickCount", ())], build=build)
        second = execute_once(get_target("freertos"),
                              [("xTaskGetTickCount", ())],
                              session=first.session)
        assert second.completed
