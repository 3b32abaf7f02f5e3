"""Campaign worker backends: inline vs process.

The refactor's acceptance gates: the inline backend is the
determinism reference (``tests/test_farm.py`` pins it byte-identical),
and the process backend must reproduce its *observable* campaign —
same merged frontier, same corpus digests, same crash signatures, same
restore-invariant semantic stats — while shipping only epoch deltas.
A dead child process degrades to a quarantined board, never a hung
barrier, and the store-backed resume path works under every backend.
Traced workers write the same artifact sets under both backends.
"""

import os
import signal

import pytest

from repro.bench.runner import make_campaign, run_campaign
from repro.cli import main
from repro.farm import CampaignOptions, CampaignOrchestrator, WorkerSpec
from repro.fuzz.targets import get_target
from repro.obs import FlightRecorder, Observability, RingBufferSink

TARGET = get_target("freertos")
# Small but multi-epoch: 2 workers x 200k cycles = 2 sync barriers.
BUDGET = 400_000
SYNC = 100_000


def campaign(backend, **overrides):
    base = dict(campaign_seed=7, sync_interval=SYNC, backend=backend)
    base.update(overrides)
    return run_campaign(TARGET, 2, BUDGET, **base)


def observable(result):
    """The cross-backend equality domain of one campaign."""
    return {
        "edges": sorted(result.edges),
        "digests": result.corpus_digests,
        "crashes": result.crash_signatures(),
        "workers": [w.stats.semantic_dict(restore_invariant=True)
                    for w in result.worker_results],
        "seeds_shared": result.stats.seeds_shared,
        "seeds_imported": result.stats.seeds_imported,
        "epochs": result.stats.sync_epochs,
    }


class TestBackendEquivalence:
    def test_process_backend_matches_thread_reference(self):
        reference = campaign("inline")
        remote = campaign("process")
        assert remote.merged_edges > 0
        assert observable(remote) == observable(reference)

    @pytest.mark.parametrize("backend", ["carrier", "socket"])
    def test_unknown_backend_rejected(self, backend):
        with pytest.raises(ValueError, match="backend"):
            CampaignOrchestrator(WorkerSpec(target=TARGET.name),
                                 CampaignOptions(backend=backend))

    def test_campaign_start_stamped_at_the_same_cycle(self):
        """The campaign clock reads the workers' post-boot clocks, so
        ``farm.campaign.start`` carries the same cycle on both
        backends (a boot costs cycles: it is never 0)."""
        stamps = []
        for backend in ("inline", "process"):
            obs = Observability(run_id="stamp-test")
            ring = obs.attach(RingBufferSink())
            campaign(backend, obs=obs)
            stamps.append([event.cycles for event in ring.events
                           if event.name == "farm.campaign.start"])
        assert stamps[0] == stamps[1]
        assert len(stamps[0]) == 1 and stamps[0][0] > 0


#: Worker artifacts that must not depend on the backend (the others
#: carry wall-clock times).
DETERMINISTIC_ARTIFACTS = ("timeseries.jsonl", "profile.json",
                           "metrics.prom", "report.html")


class TestTracedBackends:
    def test_traced_campaigns_write_identical_artifacts(self, tmp_path):
        dirs = {}
        for backend in ("inline", "process"):
            dirs[backend] = tmp_path / backend
            assert main(["campaign", TARGET.name, "--workers", "2",
                         "--budget", str(BUDGET), "--sync-interval",
                         str(SYNC), "--seed", "7", "--backend", backend,
                         "--trace-dir", str(dirs[backend])]) == 0
        for name in DETERMINISTIC_ARTIFACTS:
            for index in (0, 1):
                path = f"worker-{index}/{name}"
                inline = (dirs["inline"] / path).read_bytes()
                assert inline, path
                assert (dirs["process"] / path).read_bytes() == inline, \
                    path
        assert (dirs["process"] / "profile.json").read_bytes() == \
            (dirs["inline"] / "profile.json").read_bytes()


class TestWorkerLoss:
    def test_killed_child_degrades_to_quarantined_board(self, tmp_path):
        obs = Observability(run_id="loss-test")
        ring = obs.attach(RingBufferSink())
        obs.attach_flight(FlightRecorder(str(tmp_path)))
        orchestrator = make_campaign(
            TARGET, workers=2, total_budget_cycles=2 * BUDGET,
            campaign_seed=7, sync_interval=SYNC, backend="process",
            obs=obs)

        def hook(summary):
            if summary["epoch"] == 1:
                os.kill(orchestrator.handles[1]._proc.pid,
                        signal.SIGKILL)

        orchestrator.epoch_hook = hook
        result = orchestrator.run()
        # The dead worker is quarantined, the campaign completes.
        assert result.stats.aborted_workers == 1
        assert result.stats.interrupted is False
        survivor = result.worker_results[0]
        assert survivor.edges > 0
        # The lost worker's result degrades to its last barrier mirror:
        # the synced epoch's coverage is real, the dead epoch is gone.
        lost = result.worker_results[1]
        assert lost.stats.programs_executed > 0
        assert 0 < lost.edges <= result.merged_edges
        events = [e for e in ring.events
                  if e.name == "farm.worker.lost"]
        assert len(events) == 1
        assert events[0].fields["worker"] == 1
        assert events[0].fields["reason"]
        # The flight recorder captured the loss as a black-box dump.
        assert obs.flight.dumps == 1
        assert any("worker-1" in path
                   for path in obs.flight.dumped_paths)

    def test_loss_does_not_corrupt_survivor_results(self):
        reference = run_campaign(TARGET, 2, 2 * BUDGET,
                                 campaign_seed=7, sync_interval=SYNC)
        orchestrator = make_campaign(
            TARGET, workers=2, total_budget_cycles=2 * BUDGET,
            campaign_seed=7, sync_interval=SYNC, backend="process")

        def hook(summary):
            if summary["epoch"] == 1:
                orchestrator.handles[1]._proc.kill()

        orchestrator.epoch_hook = hook
        result = orchestrator.run()
        # Worker 0 never shared a transport with the dead worker; its
        # local campaign diverges only through the imports it no longer
        # receives, so its frontier is still a subset of the reference
        # merged frontier plus its own discoveries — sanity-check the
        # strong invariants instead of exact equality.
        assert result.stats.aborted_workers == 1
        assert result.merged_edges > 0
        assert result.merged_edges <= reference.merged_edges


class TestProcessBackendResume:
    def test_resume_under_process_backend(self, tmp_path):
        state_dir = str(tmp_path / "store")
        full = run_campaign(TARGET, 2, 2 * BUDGET, campaign_seed=7,
                            sync_interval=SYNC)

        orchestrator = make_campaign(
            TARGET, workers=2, total_budget_cycles=2 * BUDGET,
            campaign_seed=7, sync_interval=SYNC, backend="process",
            state_dir=state_dir)
        orchestrator.epoch_hook = \
            lambda summary: orchestrator.request_stop()
        interrupted = orchestrator.run()
        assert interrupted.stats.interrupted is True
        assert interrupted.stats.sync_epochs < full.stats.sync_epochs

        resumed = run_campaign(TARGET, 2, 2 * BUDGET, campaign_seed=7,
                               sync_interval=SYNC, backend="process",
                               state_dir=state_dir, resume=True)
        assert resumed.stats.resumed_from_epoch == \
            interrupted.stats.sync_epochs
        assert resumed.stats.interrupted is False
        assert observable(resumed) == observable(full)

    def test_store_written_by_thread_backend_resumes_under_process(
            self, tmp_path):
        state_dir = str(tmp_path / "store")
        full = run_campaign(TARGET, 2, 2 * BUDGET, campaign_seed=7,
                            sync_interval=SYNC)
        orchestrator = make_campaign(
            TARGET, workers=2, total_budget_cycles=2 * BUDGET,
            campaign_seed=7, sync_interval=SYNC,
            state_dir=state_dir)
        orchestrator.epoch_hook = \
            lambda summary: orchestrator.request_stop()
        orchestrator.run()
        # backend is excluded from the persisted config on purpose:
        # transport does not steer the campaign, so the replay may
        # continue under a different backend.
        resumed = run_campaign(TARGET, 2, 2 * BUDGET, campaign_seed=7,
                               sync_interval=SYNC, backend="process",
                               state_dir=state_dir, resume=True)
        assert observable(resumed) == observable(full)
