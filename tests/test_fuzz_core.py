"""Fuzzer internals: generator, mutator, corpus, feedback, monitors,
watchdog, restoration, codec failures in the engine loop."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.agent.protocol import (
    ArgData,
    ArgImm,
    ArgRef,
    TestProgram,
    serialize_program,
)
from repro.ddi.session import open_session
from repro.errors import ProtocolError
from repro.fuzz import engine as engine_module
from repro.fuzz.corpus import Corpus
from repro.fuzz.crash import CrashDb, CrashReport, KIND_ASSERT, KIND_PANIC
from repro.fuzz.feedback import CoverageMap
from repro.fuzz.generator import ProgramGenerator
from repro.fuzz.monitors import LogMonitor
from repro.fuzz.mutator import ProgramMutator
from repro.fuzz.restore import StateRestoration
from repro.fuzz.rng import FuzzRng
from repro.fuzz.watchdog import LivenessWatchdog
from repro.spec.llmgen import generate_validated_specs
from repro.spec.model import CallDef, Param, ResourceDef, ResourceRef, \
    SpecSet

from conftest import cached_build


@pytest.fixture(scope="module")
def spec():
    return generate_validated_specs(cached_build("rt-thread"))


def program_is_well_typed(spec, program):
    """Every ref must point backwards at a producer of the right type."""
    produced = []
    for index, call in enumerate(program.calls):
        call_def = spec.calls[call.api_id]
        for arg_index, arg in enumerate(call.args):
            if isinstance(arg, ArgRef):
                if not (0 <= arg.index < index):
                    return False
                param = call_def.params[arg_index]
                if not isinstance(param.type, ResourceRef):
                    return False
                if produced[arg.index] != param.type.name:
                    return False
        produced.append(call_def.ret)
    return True


class TestGenerator:
    @pytest.mark.parametrize("seed", range(8))
    def test_programs_are_well_typed_and_serializable(self, spec, seed):
        gen = ProgramGenerator(spec, FuzzRng(seed))
        for _ in range(30):
            program = gen.generate()
            assert program.calls
            assert program_is_well_typed(spec, program)
            serialize_program(program)

    def test_disabled_calls_never_emitted(self, spec):
        base = spec.without_pseudo()
        gen = ProgramGenerator(base, FuzzRng(1))
        for _ in range(50):
            for call in gen.generate().calls:
                assert call.api_id not in base.disabled

    def test_resource_args_usually_wired(self, spec):
        gen = ProgramGenerator(spec, FuzzRng(2))
        refs = imms = 0
        for _ in range(100):
            program = gen.generate()
            for index, call in enumerate(program.calls):
                call_def = spec.calls[call.api_id]
                for arg_index, param in enumerate(call_def.params):
                    if isinstance(param.type, ResourceRef):
                        if isinstance(call.args[arg_index], ArgRef):
                            refs += 1
                        else:
                            imms += 1
        assert refs > imms  # dependency wiring dominates

    def test_pair_credit_biases_selection(self, spec):
        coverage = CoverageMap()
        gen = ProgramGenerator(spec, FuzzRng(3), coverage=coverage)
        first, second = gen.enabled[0], gen.enabled[1]
        coverage.pair_credit[(first, second)] = 100.0
        favoured = sum(
            1 for _ in range(200)
            if gen._choose_call({}, prev_api=first) == second)
        baseline = sum(
            1 for _ in range(200)
            if gen._choose_call({}, prev_api=None) == second)
        assert favoured > baseline * 2


RESOURCES = ("r0", "r1", "r2", "r3")

#: Credits exactly at, just under and just over the 8.0 and 12.0 caps,
#: mixed with arbitrary ones.
CREDITS = st.one_of(
    st.floats(min_value=0.0, max_value=30.0),
    st.sampled_from([8.0, 12.0, math.nextafter(8.0, 0.0),
                     math.nextafter(8.0, 99.0), math.nextafter(12.0, 0.0),
                     math.nextafter(12.0, 99.0)]))


def reference_call_weight(gen, api_id, produced, prev_api):
    """The per-call weight formula ``_call_weights`` replaced, kept as
    written before the one-pass loop: the bits it must reproduce."""
    call = gen.spec.calls[api_id]
    weight = 1.0
    needs = call.consumes()
    for resource in needs:
        if produced.get(resource):
            weight += 2.0
        else:
            weight -= 0.5
    if call.ret and not produced.get(call.ret):
        weight += 1.0
    if call.pseudo:
        weight += 0.5
    if gen.coverage is not None:
        weight += min(gen.coverage.credit_of(api_id), 8.0)
        if prev_api is not None:
            weight += min(gen.coverage.pair_credit_of(prev_api, api_id),
                          12.0)
    return max(weight, 0.1)


def synthetic_spec(shapes):
    """One producer per resource, then a call per ``(needs, ret,
    pseudo)`` shape; two or more missing inputs take a call's static
    sum to the 0.1 floor."""
    calls = [CallDef(name=f"make_{r}", ret=r) for r in RESOURCES]
    for index, (needs, ret, pseudo) in enumerate(shapes):
        calls.append(CallDef(
            name=f"call{index}",
            params=tuple(Param(f"a{i}", ResourceRef(r))
                         for i, r in enumerate(needs)),
            ret=ret, pseudo=pseudo))
    return SpecSet(os_name="synthetic",
                   resources={r: ResourceDef(r) for r in RESOURCES},
                   calls=calls)


class TestCallWeights:
    @given(shapes=st.lists(st.tuples(
               st.lists(st.sampled_from(RESOURCES), max_size=4),
               st.sampled_from((None,) + RESOURCES), st.booleans()),
               min_size=1, max_size=10),
           produced=st.dictionaries(st.sampled_from(RESOURCES),
                                    st.lists(st.integers(0, 9), max_size=2)),
           call_credit=st.dictionaries(st.integers(0, 15), CREDITS),
           pair_credit=st.dictionaries(st.integers(0, 15), CREDITS),
           prev_api=st.one_of(st.none(), st.integers(0, 15)),
           with_coverage=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_weights_bit_identical_to_reference(
            self, shapes, produced, call_credit, pair_credit, prev_api,
            with_coverage):
        coverage = None
        if with_coverage:
            # Pair credits follow prev_api (or call 0 when there is no
            # previous call, where they must be ignored).
            coverage = CoverageMap()
            coverage.call_credit.update(call_credit)
            coverage.pair_credit.update(
                ((prev_api or 0, api_id), credit)
                for api_id, credit in pair_credit.items())
        gen = ProgramGenerator(synthetic_spec(shapes), FuzzRng(0),
                               coverage=coverage)
        expected = [reference_call_weight(gen, api_id, produced, prev_api)
                    for api_id in gen.enabled]
        assert [w.hex() for w in gen._call_weights(produced, prev_api)] \
            == [w.hex() for w in expected]


class TestMutator:
    @pytest.mark.parametrize("seed", range(6))
    def test_mutants_stay_well_typed(self, spec, seed):
        rng = FuzzRng(seed)
        gen = ProgramGenerator(spec, rng)
        mutator = ProgramMutator(spec, rng, gen)
        program = gen.generate()
        for _ in range(40):
            program = mutator.mutate(program)
            assert program_is_well_typed(spec, program)
            serialize_program(program)

    def test_splice_produces_valid_program(self, spec):
        rng = FuzzRng(9)
        gen = ProgramGenerator(spec, rng)
        mutator = ProgramMutator(spec, rng, gen)
        a, b = gen.generate(), gen.generate()
        for _ in range(20):
            spliced = mutator.splice(a, b)
            assert program_is_well_typed(spec, spliced)

    def test_mutate_never_mutates_input_in_place(self, spec):
        rng = FuzzRng(4)
        gen = ProgramGenerator(spec, rng)
        mutator = ProgramMutator(spec, rng, gen)
        program = gen.generate()
        snapshot = list(program.calls)
        mutator.mutate(program)
        assert program.calls == snapshot


class TestCorpusAndFeedback:
    def test_coverage_map_counts_new_edges(self):
        coverage = CoverageMap()
        assert coverage.add_edges([1, 2, 3]) == 3
        assert coverage.add_edges([2, 3, 4]) == 1
        assert coverage.edge_count == 4

    def test_credit_decays(self):
        coverage = CoverageMap()
        coverage.credit_calls([5], 10)
        before = coverage.credit_of(5)
        for _ in range(50):
            coverage.decay_credit()
        assert coverage.credit_of(5) < before

    def test_corpus_weights_prefer_productive_fast_seeds(self):
        from repro.agent.protocol import ArgImm, Call
        corpus = Corpus()
        slow = corpus.add(TestProgram(calls=[Call(1, (ArgImm(0),))]),
                          new_edges=5, exec_cycles=100_000)
        fast = corpus.add(TestProgram(calls=[Call(2, (ArgImm(0),))]),
                          new_edges=5, exec_cycles=1_000)
        assert fast.weight() > slow.weight()

    def test_corpus_eviction_keeps_size_bounded(self):
        from repro.agent.protocol import ArgImm, Call
        from repro.fuzz import corpus as corpus_mod
        corpus = Corpus()
        for i in range(corpus_mod.MAX_CORPUS + 10):
            corpus.add(TestProgram(calls=[Call(1, (ArgImm(i),))]),
                       new_edges=1)
        assert len(corpus) == corpus_mod.MAX_CORPUS

    def test_corpus_dedups_by_content_hash(self):
        from repro.agent.protocol import ArgImm, Call
        corpus = Corpus()
        program = TestProgram(calls=[Call(1, (ArgImm(7),))])
        first = corpus.add(program, new_edges=2)
        again = corpus.add(TestProgram(calls=[Call(1, (ArgImm(7),))]),
                           new_edges=5, crashed=True)
        assert again is first
        assert len(corpus) == 1
        assert corpus.total_added == 2
        assert first.new_edges == 5 and first.crashed

    def test_eviction_policy_drops_lowest_weight_earliest_on_ties(self):
        """Pins the documented policy: the victim is the entry with the
        lowest current scheduling weight; among equal weights the
        earliest-admitted entry loses, and the best-weighted entry is
        never the victim."""
        from repro.agent.protocol import ArgImm, Call

        def prog(i):
            return TestProgram(calls=[Call(1, (ArgImm(i),))])

        corpus = Corpus(max_entries=3)
        weak_old = corpus.add(prog(0), new_edges=1)
        weak_new = corpus.add(prog(1), new_edges=1)
        strong = corpus.add(prog(2), new_edges=9)
        trigger = corpus.add(prog(3), new_edges=5)
        # weak_old and weak_new tie on weight; the stalest one goes.
        assert weak_old not in corpus.entries
        assert weak_old.digest not in corpus
        assert corpus.entries == [weak_new, strong, trigger]

    def test_eviction_victim_can_be_the_newcomer(self):
        """A weak new arrival is evicted immediately rather than
        displacing a better resident."""
        from repro.agent.protocol import ArgImm, Call
        corpus = Corpus(max_entries=2)
        corpus.add(TestProgram(calls=[Call(1, (ArgImm(0),))]), new_edges=9)
        corpus.add(TestProgram(calls=[Call(1, (ArgImm(1),))]), new_edges=9)
        weakling = corpus.add(TestProgram(calls=[Call(1, (ArgImm(2),))]),
                              new_edges=0, exec_cycles=500_000)
        assert weakling not in corpus.entries
        assert len(corpus) == 2

    def test_pick_from_empty_returns_none(self):
        assert Corpus().pick(FuzzRng(0)) is None


class TestCrashDb:
    def test_dedup_by_backtrace(self):
        db = CrashDb()
        first = CrashReport("os", KIND_PANIC, "boom at 0x100",
                            backtrace=["a", "b"])
        dup = CrashReport("os", KIND_PANIC, "boom at 0x200",
                          backtrace=["a", "b"])
        assert db.add(first)
        assert not db.add(dup)
        assert len(db) == 1
        assert db.total_events == 2

    def test_numbers_normalised_in_logonly_signatures(self):
        db = CrashDb()
        assert db.add(CrashReport("os", KIND_ASSERT, "overflow of 12 bytes"))
        assert not db.add(CrashReport("os", KIND_ASSERT,
                                      "overflow of 99 bytes"))

    def test_different_kinds_not_deduped(self):
        db = CrashDb()
        assert db.add(CrashReport("os", KIND_PANIC, "x"))
        assert db.add(CrashReport("os", KIND_ASSERT, "x"))

    def test_render_includes_frames(self):
        report = CrashReport("rt-thread", KIND_PANIC, "bus fault",
                             backtrace=["inner", "outer"],
                             monitor="exception")
        text = report.render()
        assert "Level 1: inner" in text
        assert "monitor: exception" in text


class TestLogMonitor:
    @pytest.mark.parametrize("line", [
        "(x != NULL) assertion failed at function:foo",
        "ASSERTION FAIL [ok] @ bar.c:10",
        "FreeRTOS PANIC: something (bad)",
        "BUG: unexpected stop: corruption",
        "up_assert: Fatal hard fault (detail)",
    ])
    def test_crashy_lines_detected(self, line):
        monitor = LogMonitor("os")
        assert monitor.scan([line])

    @pytest.mark.parametrize("line", [
        "FreeRTOS kernel booting",
        "http server listening",
        "[sal] create socket",
        "memory: used 1024 max 2048",
    ])
    def test_benign_lines_ignored(self, line):
        assert LogMonitor("os").scan([line]) == []


class TestWatchdogAndRestore:
    def test_watchdog_passes_on_moving_pc(self):
        session = open_session(cached_build("freertos"))
        watchdog = LivenessWatchdog(session)
        assert watchdog.check()       # seeds history
        session.link.exec_continue()  # PC moves to read_prog
        assert watchdog.check()

    def test_watchdog_fails_on_parked_pc(self):
        session = open_session(cached_build("freertos"))
        watchdog = LivenessWatchdog(session)
        assert watchdog.check()
        assert not watchdog.check()      # nothing ran in between
        assert watchdog.stall_trips == 1

    def test_watchdog_fails_on_link_timeout(self):
        session = open_session(cached_build("freertos"))
        watchdog = LivenessWatchdog(session)
        session.board.link_lost = True
        assert not watchdog.check()
        assert watchdog.timeout_trips == 1

    def test_restoration_repairs_destroyed_flash(self):
        session = open_session(cached_build("freertos"))
        flash = session.board.flash
        flash.write(flash.base, b"\x00" * 64)           # kill the header
        kernel = next(p for p in session.build.partitions
                      if p.name == "kernel")
        flash.write(flash.base + kernel.offset, b"\x00" * 64)
        session.reboot()
        assert session.board.boot_failed
        restoration = StateRestoration(session)
        assert restoration.restore()
        assert not session.board.boot_failed
        assert restoration.restorations == 1

    def test_restoration_uses_kconfig_partition_table(self):
        session = open_session(cached_build("freertos"))
        restoration = StateRestoration(session)
        names = {part.name for part in restoration.partition_specs}
        assert names == {"boot", "kernel", "appfs"}


class TestCodecFailuresInTheLoop:
    """Only a ProtocolError from ``serialize_program`` is a rejected
    program; any other exception is a host bug and must surface."""

    def start_engine(self):
        build = cached_build("pokos", "qemu-virt")
        engine = engine_module.EofEngine(
            build, generate_validated_specs(build),
            engine_module.EngineOptions(seed=1, budget_cycles=150_000,
                                        max_iterations=5))
        engine.start()
        return engine

    def test_protocol_error_counts_as_rejected(self, monkeypatch):
        engine = self.start_engine()

        def unencodable(program):
            raise ProtocolError("too many calls")

        monkeypatch.setattr(engine_module, "serialize_program", unencodable)
        engine.run_until(engine.options.budget_cycles)
        assert engine.stats.rejected_programs == 5

    def test_other_errors_propagate(self, monkeypatch):
        engine = self.start_engine()

        def broken(program):
            raise RuntimeError("host-side bug")

        monkeypatch.setattr(engine_module, "serialize_program", broken)
        with pytest.raises(RuntimeError, match="host-side bug"):
            engine.run_until(engine.options.budget_cycles)
