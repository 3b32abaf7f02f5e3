"""repro.farm: multi-board campaigns, shared-corpus sync, crash triage."""

import pytest

from repro.agent.protocol import ArgImm, Call, TestProgram
from repro.bench.runner import make_campaign
from repro.farm import (
    CampaignOptions,
    CampaignOrchestrator,
    CampaignState,
    WorkerSpec,
    derive_worker_seed,
)
from repro.farm.procworker import build_engine
from repro.fuzz.corpus import CorpusEntry, program_hash
from repro.fuzz.crash import KIND_ASSERT, KIND_PANIC, CrashReport
from repro.fuzz.engine import EofEngine
from repro.fuzz.stats import CampaignStats
from repro.fuzz.targets import get_target

SHORT = 800_000

#: The spec template every campaign here derives its workers from.
FREERTOS = WorkerSpec(target="freertos")


def run_campaign(**overrides):
    base = dict(campaign_seed=7, workers=2, sync_interval=200_000,
                total_budget_cycles=SHORT, import_min_novelty=1)
    base.update(overrides)
    return CampaignOrchestrator(FREERTOS, CampaignOptions(**base)).run()


def seed_entry(value, edges, crashed=False, new_edges=None):
    """A CorpusEntry the way an engine would have admitted it."""
    program = TestProgram(calls=[Call(1, (ArgImm(value),))])
    return CorpusEntry(program=program,
                       new_edges=len(edges) if new_edges is None
                       else new_edges,
                       crashed=crashed, digest=program_hash(program),
                       edge_footprint=frozenset(edges))


class TestSeedDerivation:
    def test_worker_streams_distinct_and_stable(self):
        seeds = [derive_worker_seed(1, i) for i in range(16)]
        assert len(set(seeds)) == 16
        assert seeds == [derive_worker_seed(1, i) for i in range(16)]

    def test_campaign_seed_changes_every_stream(self):
        a = [derive_worker_seed(1, i) for i in range(8)]
        b = [derive_worker_seed(2, i) for i in range(8)]
        assert all(x != y for x, y in zip(a, b))


class TestCampaignState:
    def test_push_admits_only_frontier_advancing_seeds(self):
        state = CampaignState()
        state.merge_edges({1, 2, 3})
        stale = seed_entry(0, {1, 2})          # fully covered already
        fresh = seed_entry(1, {3, 4})          # edge 4 is new
        assert state.push(worker=0, epoch=1, entries=[stale, fresh]) == 1
        assert fresh.digest in state.corpus
        assert stale.digest not in state.corpus
        assert 4 in state.edges

    def test_push_always_admits_crashers(self):
        state = CampaignState()
        state.merge_edges({1, 2})
        crasher = seed_entry(2, {1, 2}, crashed=True)
        assert state.push(worker=1, epoch=3, entries=[crasher]) == 1
        assert state.provenance[crasher.digest].worker == 1

    def test_push_order_is_the_dedup_order(self):
        state = CampaignState()
        first = seed_entry(3, {10, 11})
        second = seed_entry(4, {10, 11})       # same edges, later worker
        assert state.push(0, 1, [first]) == 1
        assert state.push(1, 1, [second]) == 0

    def test_pull_skips_own_seeds_and_ranks_by_novelty(self):
        state = CampaignState()
        mine = seed_entry(5, {1, 2, 3})
        small = seed_entry(6, {4})
        large = seed_entry(7, {5, 6, 7})
        state.push(0, 1, [mine])
        state.push(1, 1, [small, large])
        got = state.pull(worker=0, known_digests=set(),
                         local_edges=set(), limit=8)
        assert [e.digest for e in got] == [large.digest, small.digest]
        assert mine.digest not in [e.digest for e in got]

    def test_pull_honours_cap_known_set_and_min_novelty(self):
        state = CampaignState()
        entries = [seed_entry(10 + i, {100 + i, 200 + i})
                   for i in range(4)]
        state.push(1, 1, entries)
        capped = state.pull(0, known_digests=set(), local_edges=set(),
                            limit=2)
        assert len(capped) == 2
        known = {entries[0].digest}
        rest = state.pull(0, known_digests=known, local_edges=set(),
                          limit=8)
        assert entries[0].digest not in [e.digest for e in rest]
        # Both footprint edges locally covered -> below min_novelty=1.
        none = state.pull(0, known_digests=set(),
                          local_edges={100, 200, 101, 201, 102, 202,
                                       103, 203},
                          limit=8)
        assert none == []

    def test_cap_evicts_lowest_weight_then_earliest(self):
        state = CampaignState(max_corpus=2)
        first = seed_entry(20, {1, 2}, new_edges=3)
        weak = seed_entry(21, {3}, new_edges=0)
        last = seed_entry(22, {4, 5}, new_edges=3)
        assert state.push(0, 1, [first, weak, last]) == 3
        assert weak.digest not in state.corpus
        assert weak.digest not in state.snapshot_digests()
        assert len(state.corpus) == 2
        assert state.seeds_shared == 3
        # Equal weights: the earliest-admitted seed is the victim.
        state = CampaignState(max_corpus=2)
        tied = [seed_entry(30 + i, {10 + i}) for i in range(3)]
        assert state.push(1, 1, tied) == 3
        assert state.snapshot_digests() == [tied[1].digest,
                                            tied[2].digest]

    def test_crash_triage_dedups_across_workers(self):
        state = CampaignState()
        boom = CrashReport("freertos", KIND_PANIC, "boom at 0x100",
                           backtrace=["a", "b"])
        dup = CrashReport("freertos", KIND_PANIC, "boom at 0x200",
                          backtrace=["a", "b"])
        other = CrashReport("freertos", KIND_ASSERT, "x != NULL")
        assert state.record_crash(0, 1, boom)
        assert not state.record_crash(1, 2, dup)
        assert state.record_crash(1, 2, other)
        triaged = state.crashes[boom.signature()]
        assert triaged.first_worker == 0
        assert triaged.count == 2
        assert triaged.workers == {0, 1}
        assert state.crash_signatures() == [boom.signature(),
                                            other.signature()]

    def test_interleaved_pushes_merge_losslessly(self):
        state = CampaignState()
        per_worker = 40
        for i in range(per_worker):
            for worker in range(4):
                edge = worker * 1000 + i
                state.merge_edges({edge})
                state.push(worker, 1,
                           [seed_entry(worker * 1000 + i, {edge + 1})])
        expected = {w * 1000 + i for w in range(4)
                    for i in range(per_worker)}
        expected |= {edge + 1 for edge in expected}
        assert state.edges == expected
        assert len(state.corpus) == 4 * per_worker


class TestEngineImportPaths:
    @pytest.fixture(scope="class")
    def started(self):
        return build_engine(WorkerSpec(target="freertos", seed=11,
                                       budget_cycles=200_000,
                                       name="eof-w0"))

    def test_inject_programs_counts_imports(self, started):
        before = started.stats.imported_seeds
        program = TestProgram(calls=[Call(1, (ArgImm(1),))])
        started.inject_programs([program])
        assert started.stats.imported_seeds == before + 1
        assert started._inject_queue


class TestCampaign:
    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError):
            CampaignOrchestrator(FREERTOS, CampaignOptions(workers=0))

    def test_replay_determinism(self):
        """Same (campaign_seed, workers, sync_interval) twice: identical
        merged edges, shared-corpus hashes and crash signatures."""
        first = run_campaign()
        second = run_campaign()
        assert first.merged_edges == second.merged_edges
        assert first.corpus_digests == second.corpus_digests
        assert first.crash_signatures() == second.crash_signatures()
        assert ([r.edges for r in first.worker_results]
                == [r.edges for r in second.worker_results])

    def test_merged_frontier_bounds_every_worker(self):
        for workers in (1, 2):
            result = run_campaign(workers=workers)
            per_worker = [r.edges for r in result.worker_results]
            assert result.merged_edges >= max(per_worker)
            assert result.stats.max_worker_edges() == max(per_worker)

    def test_sync_shares_and_imports_seeds(self):
        result = run_campaign(sync_interval=100_000)
        assert result.stats.sync_epochs >= 4
        assert result.stats.seeds_shared > 0
        assert result.stats.seeds_imported > 0
        assert result.corpus_digests  # shared pool is non-empty

    def test_sync_interval_zero_matches_standalone_runs(self):
        """interval=0 is the scaling baseline: N independent engines."""
        result = run_campaign(sync_interval=0)
        assert result.stats.seeds_imported == 0
        for index, worker_result in enumerate(result.worker_results):
            solo = build_engine(WorkerSpec(
                target="freertos", index=index,
                seed=derive_worker_seed(7, index),
                budget_cycles=SHORT // 2, name=f"eof-w{index}")).run()
            assert solo.edges == worker_result.edges

    def test_stats_roundtrip(self):
        result = run_campaign()
        data = result.stats.to_dict()
        back = CampaignStats.from_dict(data)
        assert back.merged_edges == result.stats.merged_edges
        assert back.worker_count == result.stats.worker_count
        assert "merged" in result.stats.summary()

    def test_keyboard_interrupt_aborts_without_running_other_boards(
            self, monkeypatch):
        """A second Ctrl-C raises KeyboardInterrupt in the running epoch;
        it must unwind the campaign at once, not wait for the other
        boards to finish theirs."""
        orchestrator = make_campaign(get_target("freertos"), 2, 400_000,
                                     sync_interval=100_000)
        entered = []

        def interrupted(engine, target_cycles):
            entered.append(engine.options.name)
            raise KeyboardInterrupt

        monkeypatch.setattr(EofEngine, "run_until", interrupted)
        with pytest.raises(KeyboardInterrupt):
            orchestrator.run()
        assert entered == ["eof-w0"]
