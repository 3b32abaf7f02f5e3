"""repro.db: crash-safe campaign store — salvage, journal, resume.

Unit coverage of the store (round trip, config guard, corrupt-store
fixtures) plus the acceptance gates: a campaign interrupted at an epoch
barrier and resumed reproduces the *same* merged frontier as an
uninterrupted run of the same ``(campaign_seed, workers,
sync_interval)`` — checked in-process on two OS targets and end-to-end
through the CLI with a real SIGKILL.
"""

import os
import signal
import subprocess
import sys
import time

import pytest

from repro.agent.protocol import ArgImm, Call, TestProgram
from repro.bench.runner import make_campaign
from repro.db import (
    CORRUPT_DIR,
    JOURNAL_FILE,
    CampaignStore,
)
from repro.errors import StoreConfigError, StoreError
from repro.farm.state import CampaignState
from repro.fuzz.corpus import CorpusEntry, program_hash
from repro.fuzz.crash import KIND_PANIC, CrashReport
from repro.fuzz.targets import get_target

SHORT = 800_000


def seed_entry(value, edges, crashed=False):
    program = TestProgram(calls=[Call(1, (ArgImm(value),))])
    return CorpusEntry(program=program, new_edges=len(edges),
                       crashed=crashed, digest=program_hash(program),
                       edge_footprint=frozenset(edges))


def store_config(**overrides):
    config = {"campaign_seed": 7, "workers": 2,
              "sync_interval": 100_000, "target": "freertos"}
    config.update(overrides)
    return config


def boom():
    return CrashReport("freertos", KIND_PANIC, "boom at 0x100",
                       backtrace=["a", "b"])


def populated_state():
    state = CampaignState()
    state.push(0, 1, [seed_entry(1, {1, 2}), seed_entry(2, {3})])
    state.record_crash(1, 1, boom())
    return state


class TestStoreRoundTrip:
    def test_epoch_round_trip(self, tmp_path):
        root = str(tmp_path / "state")
        state = populated_state()
        store = CampaignStore(root)
        store.open(store_config())
        store.record_epoch(1, 100_000, state, {"edges": 3})
        store.close()
        assert os.listdir(root) == [JOURNAL_FILE]

        back = CampaignStore.read(root)
        assert back.epoch == 1
        assert back.edges == set(state.edges)
        assert sorted(e.digest for e in back.corpus_entries()) == \
            sorted(state.snapshot_digests())
        assert back.crash_signatures() == list(state.crashes)
        assert back.salvage_summary()["salvaged_records"] > 0
        assert back.series and back.series[0]["epoch"] == 1

    def test_existing_state_requires_resume(self, tmp_path):
        root = str(tmp_path / "state")
        store = CampaignStore(root)
        store.open(store_config())
        store.record_epoch(1, 100_000, populated_state(), {})
        store.close()
        with pytest.raises(StoreError):
            CampaignStore(root).open(store_config())

    def test_config_mismatch_names_the_key(self, tmp_path):
        root = str(tmp_path / "state")
        store = CampaignStore(root)
        store.open(store_config())
        store.record_epoch(1, 100_000, populated_state(), {})
        store.close()
        with pytest.raises(StoreConfigError, match="workers"):
            CampaignStore(root).open(store_config(workers=4),
                                     resume=True)

    def test_fresh_directory_is_empty(self, tmp_path):
        back = CampaignStore.read(str(tmp_path / "nowhere"))
        assert back.epoch == 0
        assert back.corpus_entries() == []

    def test_crash_seen_again_is_durable_at_its_barrier(self, tmp_path):
        root = str(tmp_path / "state")
        state = populated_state()
        store = CampaignStore(root)
        store.open(store_config())
        store.record_epoch(1, 100_000, state, {})
        state.record_crash(0, 2, boom())
        store.record_epoch(2, 200_000, state, {})
        # No close(): a kill after the barrier must not lose the
        # re-triage.
        [live] = state.crashes.values()
        assert (live.count, sorted(live.workers)) == (2, [0, 1])
        [stored] = CampaignStore.read(root).crashes.values()
        assert stored["count"] == 2
        assert stored["workers"] == [0, 1]
        assert stored["first_worker"] == 1
        store.close()

    def test_legacy_checkpoint_directory_is_refused(self, tmp_path):
        root = str(tmp_path / "state")
        write_two_epochs(root)
        open(os.path.join(root, "checkpoint.eofc"), "wb").close()
        with pytest.raises(StoreError, match="checkpoint.eofc"):
            CampaignStore(root).open(store_config(), resume=True)
        with pytest.raises(StoreError, match="checkpoint.eofc"):
            CampaignStore.read(root)


def write_two_epochs(root):
    """A store with two committed epochs."""
    store = CampaignStore(root)
    store.open(store_config())
    state = populated_state()
    store.record_epoch(1, 100_000, state, {"edges": 3})
    state.push(0, 2, [seed_entry(3, {4, 5})])
    store.record_epoch(2, 200_000, state, {"edges": 5})
    store.close()
    return state


class TestSalvage:
    """Corrupted stores load with salvage + quarantine, never raise."""

    def test_torn_tail_drops_only_the_last_epoch(self, tmp_path):
        root = str(tmp_path / "state")
        reference = write_two_epochs(root)
        journal = os.path.join(root, JOURNAL_FILE)
        with open(journal, "r+b") as fh:
            fh.truncate(os.path.getsize(journal) - 7)
        back = CampaignStore.read(root)
        assert back.epoch == 1
        assert back.edges < set(reference.edges)
        # The torn tail is the incomplete frame left behind by the
        # truncation (its size, not the count of missing bytes).
        assert back.salvage_summary()["torn_tail_bytes"] > 0

    def test_flipped_byte_quarantines_the_span(self, tmp_path):
        root = str(tmp_path / "state")
        write_two_epochs(root)
        journal = os.path.join(root, JOURNAL_FILE)
        with open(journal, "r+b") as fh:
            data = bytearray(fh.read())
            data[len(data) // 2] ^= 0x41
            fh.seek(0)
            fh.write(data)
        back = CampaignStore.read(root)
        summary = back.salvage_summary()
        assert summary["quarantined_spans"] >= 1
        assert summary["salvaged_records"] >= 1
        quarantined = os.listdir(os.path.join(root, CORRUPT_DIR))
        assert any(name.startswith("journal-") for name in quarantined)

    def test_reopen_rewrites_a_damaged_journal_clean(self, tmp_path):
        root = str(tmp_path / "state")
        write_two_epochs(root)
        journal = os.path.join(root, JOURNAL_FILE)
        with open(journal, "r+b") as fh:
            fh.truncate(os.path.getsize(journal) - 7)
        store = CampaignStore(root)
        store.open(store_config(), resume=True)
        store.close()
        # Damage must not compound: the reopened journal verifies.
        summary = CampaignStore.read(root).salvage_summary()
        assert summary["salvaged_records"] > 0
        assert summary["quarantined_spans"] == 0
        assert summary["quarantined_bytes"] == 0
        assert summary["torn_tail_bytes"] == 0
        assert summary["dropped_uncommitted"] == 0


def campaign(os_name, state_dir=None, resume=False, epoch_hook=None):
    return make_campaign(
        get_target(os_name), workers=2, total_budget_cycles=SHORT,
        campaign_seed=7, sync_interval=100_000, import_min_novelty=1,
        state_dir=state_dir, resume=resume, epoch_hook=epoch_hook)


class TestKillResumeDeterminism:
    """The acceptance gate: interrupt + resume == uninterrupted run."""

    @pytest.mark.parametrize("os_name", ["freertos", "rt-thread"])
    def test_interrupted_resume_matches_reference(self, tmp_path,
                                                  os_name):
        reference = campaign(os_name).run()
        assert reference.stats.sync_epochs >= 4

        root = str(tmp_path / "state")
        orchestrator = campaign(os_name, state_dir=root)

        def stop_at_two(summary):
            if summary["epoch"] == 2:
                orchestrator.request_stop()

        orchestrator.epoch_hook = stop_at_two
        interrupted = orchestrator.run()
        assert interrupted.stats.interrupted
        assert interrupted.stats.sync_epochs == 2
        assert interrupted.edges < reference.edges or \
            interrupted.edges == reference.edges

        resumed = campaign(os_name, state_dir=root, resume=True).run()
        assert not resumed.stats.interrupted
        assert resumed.stats.resumed_from_epoch == 2
        assert resumed.edges == reference.edges
        assert set(resumed.crash_signatures()) == \
            set(reference.crash_signatures())
        assert sorted(resumed.corpus_digests) == \
            sorted(reference.corpus_digests)

    def test_resume_of_a_complete_campaign_is_stable(self, tmp_path):
        root = str(tmp_path / "state")
        first = campaign("freertos", state_dir=root).run()
        again = campaign("freertos", state_dir=root, resume=True).run()
        assert again.edges == first.edges
        assert sorted(again.corpus_digests) == \
            sorted(first.corpus_digests)

    def test_warm_start_imports_seeds_without_frontier(self, tmp_path):
        donor_root = str(tmp_path / "donor")
        donor = campaign("freertos", state_dir=donor_root).run()
        assert donor.corpus_digests
        orchestrator = make_campaign(
            get_target("freertos"), workers=2,
            total_budget_cycles=SHORT, campaign_seed=11,
            sync_interval=100_000, import_min_novelty=1,
            warm_start_dir=donor_root)
        assert len(orchestrator.state.corpus) == \
            len(donor.corpus_digests)
        # Warmed footprints stay out of the frontier: the headline
        # merged-edges metric counts only what THIS campaign covers.
        assert orchestrator.state.edges == set()


CLI = [sys.executable, "-m", "repro.cli", "campaign", "freertos",
       "--workers", "2", "--sync-interval", "100000", "--seed", "7"]


def cli_env():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def wait_for(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


class TestCliKillResume:
    def test_sigkill_then_resume_matches_reference(self, tmp_path):
        budget = ["--budget", str(SHORT)]
        reference = subprocess.run(
            CLI + budget, env=cli_env(), capture_output=True,
            text=True, timeout=120)
        assert reference.returncode == 0

        root = str(tmp_path / "state")
        proc = subprocess.Popen(CLI + budget + ["--state-dir", root],
                                env=cli_env(),
                                stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL)
        alive = wait_for(lambda: os.path.exists(
            os.path.join(root, JOURNAL_FILE)))
        proc.kill()
        proc.wait(timeout=30)
        if not alive:  # the run finished before the first barrier
            pytest.fail("campaign never persisted an epoch")

        salvage = CampaignStore.read(root).salvage_summary()
        assert salvage["salvaged_records"] > 0

        resumed = subprocess.run(
            CLI + budget + ["--state-dir", root, "--resume"],
            env=cli_env(), capture_output=True, text=True, timeout=120)
        assert resumed.returncode == 0, resumed.stderr
        assert "resuming from epoch" in resumed.stdout
        # The summary lines (merged edges, crashes, corpus) must be
        # byte-identical to the uninterrupted reference.
        tail = lambda text: text.strip().splitlines()[-4:]
        assert tail(resumed.stdout) == tail(reference.stdout)

    def test_sigint_exits_3_and_resume_completes(self, tmp_path):
        root = str(tmp_path / "state")
        budget = ["--budget", "8000000"]
        proc = subprocess.Popen(CLI + budget + ["--state-dir", root],
                                env=cli_env(),
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        assert wait_for(lambda: os.path.exists(
            os.path.join(root, JOURNAL_FILE)))
        proc.send_signal(signal.SIGINT)
        _, stderr = proc.communicate(timeout=120)
        assert proc.returncode == 3, stderr
        assert "interrupted" in stderr
        assert "--resume" in stderr

        resumed = subprocess.run(
            CLI + budget + ["--state-dir", root, "--resume"],
            env=cli_env(), capture_output=True, text=True, timeout=300)
        assert resumed.returncode == 0, resumed.stderr
        assert "resuming from epoch" in resumed.stdout

    def test_second_sigint_aborts_hard(self, tmp_path):
        # The stop handler's second branch: a repeated SIGINT raises
        # KeyboardInterrupt out of the running epoch, so the process
        # dies by the signal instead of waiting for the barrier.  The
        # large sync interval (the last --sync-interval wins) keeps the
        # first barrier seconds away.
        root = str(tmp_path / "state")
        proc = subprocess.Popen(
            CLI + ["--budget", "8000000", "--sync-interval", "4000000",
                   "--state-dir", root],
            env=cli_env(), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True)
        assert wait_for(lambda: os.path.exists(
            os.path.join(root, JOURNAL_FILE)))
        proc.send_signal(signal.SIGINT)
        time.sleep(0.3)
        proc.send_signal(signal.SIGINT)
        _, stderr = proc.communicate(timeout=60)
        assert proc.returncode == -signal.SIGINT, stderr
        assert "campaign interrupted" not in stderr
