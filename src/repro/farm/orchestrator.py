"""Multi-board campaign orchestration (the paper's §5 parallel setup).

The orchestrator steps N workers — one virtual board each — through
cycle-based **sync epochs**: every worker fuzzes independently until
its own cycle clock crosses the epoch boundary, then a barrier merges
worker state into the shared :class:`CampaignState` and delivers
cross-worker seed imports, and the next epoch begins.

Every worker is built from one :class:`~repro.farm.wire.WorkerSpec`
and driven through one protocol (:mod:`repro.farm.handles`); only
the transport differs.  The ``inline`` backend answers each
worker on the coordinator thread through an in-memory frame pair, one
board after another (the determinism reference), and ``process`` runs
one worker per child process with the same frames over pipes.  The
coordinator is the only thread in the process under both backends, so
the store and the shared state need no locks, and persistence and
resume are backend-independent.

Determinism argument
--------------------
A campaign is a pure function of ``(campaign_seed, workers,
sync_interval)``:

* each worker's RNG stream is derived from the campaign seed by a
  splitmix64 mix of its index — streams never touch each other;
* within an epoch a worker mutates only its own engine, whose behaviour
  is already deterministic in virtual time;
* the epoch barrier is a full join — shared-state merging happens on
  the coordinator thread in worker-index order, never concurrently with
  execution — so process scheduling cannot reorder any observable
  merge;
* sync points are **cycle-based** (epoch ``k`` ends at ``k *
  sync_interval`` virtual cycles per worker), never wall-clock-based;
* both backends merge only *deltas* (new seeds, new edges, new
  crashes since the last barrier), taken by the same worker core and
  carried as the same frames, and merging a delta stream is
  state-identical to merging the full sets.

A worker whose transport dies mid-epoch is treated like a quarantined
board: the un-synced epoch is discarded, a ``farm.worker.lost`` event
(plus flight-recorder dump) marks the loss, and the campaign continues
with the remaining workers instead of hanging the barrier.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Set

from repro.farm.handles import (
    ABORTED,
    LIVE,
    EpochOutcome,
    WorkerLost,
    build_worker_handles,
)
from repro.farm.state import CampaignState, TriagedCrash
from repro.farm.wire import WorkerSpec
from repro.fuzz.corpus import CorpusEntry
from repro.fuzz.crash import CrashReport
from repro.fuzz.engine import FuzzResult
from repro.fuzz.stats import CampaignStats
from repro.obs import NULL_OBS, Observability

if TYPE_CHECKING:
    from repro.db.store import CampaignStore

#: The campaign backends ``--backend`` may name, with the numeric code
#: the ``farm.backend`` gauge reports.
BACKENDS = ("inline", "process")

#: Sync-delta size buckets, in bytes: a lone seed frame lands in the
#: low hundreds, a busy epoch in the tens of KiB, and anything past a
#: MiB means a worker pushed corpus-scale state (the smell the O(delta)
#: contract exists to prevent).
DELTA_BYTE_BUCKETS = (256, 1_024, 4_096, 16_384, 65_536,
                      262_144, 1_048_576, 4_194_304)


def derive_worker_seed(campaign_seed: int, index: int) -> int:
    """Per-worker RNG stream seed (splitmix64 of seed and index).

    Streams for different indices are statistically independent, and
    the derivation is pure arithmetic, so replaying a campaign replays
    every worker bit-for-bit.
    """
    mask = (1 << 64) - 1
    z = (campaign_seed * 0x9E3779B97F4A7C15 + (index + 1)) & mask
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & mask
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & mask
    z ^= z >> 31
    # Keep seeds readable in logs while staying collision-free in
    # practice for realistic worker counts.
    return z & 0x7FFFFFFF


@dataclass
class CampaignOptions:
    """Knobs of one multi-board campaign."""

    campaign_seed: int = 1
    workers: int = 2
    #: Virtual cycles each worker runs between sync barriers; 0 turns
    #: syncing off entirely (= N independent single-board runs whose
    #: stats are merged at the end — the scaling baseline).  The
    #: default is deliberately coarse: syncing too often floods workers
    #: with each other's still-warm seeds before local exploration has
    #: paid off.
    sync_interval: int = 400_000
    #: Total cycle budget across the whole campaign; each worker gets
    #: ``total_budget_cycles // workers``.
    total_budget_cycles: int = 2_000_000
    #: Max cross-worker seeds delivered to one worker per sync epoch.
    #: The pull is novelty-ranked, so a tight cap spends the import
    #: budget on the few most frontier-advancing foreign seeds instead
    #: of flooding the local pool.
    import_cap: int = 2
    #: Minimum new-to-local edges a seed must carry to be worth
    #: importing onto this worker's board.
    import_min_novelty: int = 2
    #: Where worker engines execute: ``inline`` (on the coordinator
    #: thread, the determinism reference) or ``process`` (one child
    #: process per board, pipe frames).  Both backends replay the same
    #: campaign.
    backend: str = "inline"


@dataclass
class CampaignResult:
    """Everything a campaign produced."""

    options: CampaignOptions
    stats: CampaignStats
    worker_results: List[FuzzResult]
    edges: Set[int] = field(default_factory=set)
    crashes: Dict[str, TriagedCrash] = field(default_factory=dict)
    corpus_digests: List[str] = field(default_factory=list)

    @property
    def merged_edges(self) -> int:
        """The campaign's merged-frontier size (the headline metric)."""
        return len(self.edges)

    def crash_signatures(self) -> List[str]:
        """Campaign-unique crash signatures, first-seen order."""
        return list(self.crashes)


def campaign_config(options: CampaignOptions,
                    target: str = "") -> Dict[str, object]:
    """The option set a campaign store persists and re-checks on resume.

    Every :class:`CampaignOptions` field that steers *execution* is
    included: a resumed campaign is a deterministic replay, so any knob
    that changes what the workers do — not just the seed triple — must
    match for the replay to reproduce the interrupted run.  ``backend``
    is deliberately excluded: both backends replay the same campaign
    (the backend acceptance gate), so a store written under one backend
    may resume under the other.
    """
    config: Dict[str, object] = asdict(options)
    config.pop("backend", None)
    config["target"] = target
    return config


def _epoch_row(summary: Dict[str, object]) -> Dict[str, object]:
    """One barrier's row (the time-series and store epoch schema)."""
    return {key: summary[key] for key in
            ("edges", "lanes", "programs", "crashes", "shared",
             "imported", "live")}


class CampaignOrchestrator:
    """Run one campaign: N workers, shared corpus, sync epochs.

    ``worker_spec`` is the template every worker's spec derives from:
    the orchestrator fills in the index, the worker seed, the
    per-worker budget, the name and the campaign seed.
    """

    def __init__(self, worker_spec: WorkerSpec,
                 options: Optional[CampaignOptions] = None,
                 obs: Optional[Observability] = None,
                 store: Optional["CampaignStore"] = None,
                 warm_entries: Optional[List[CorpusEntry]] = None):
        self.options = options or CampaignOptions()
        if self.options.workers < 1:
            raise ValueError("a campaign needs at least one worker")
        if self.options.backend not in BACKENDS:
            raise ValueError(
                f"unknown campaign backend {self.options.backend!r} "
                f"(expected one of {', '.join(BACKENDS)})")
        self.obs = obs or NULL_OBS
        #: Opened campaign store (ownership transfers here: the
        #: orchestrator closes it when the run ends).
        #: A store opened with ``resume`` sets the fast-forward point.
        #: The store lives on the coordinator under every backend.
        self.store = store
        self._resume_epoch = store.resumed_from_epoch if store else 0
        self._stop_requested = False
        self._interrupted = False
        self._last_imported = 0
        self.state = CampaignState()
        if warm_entries:
            self.state.warm_start(warm_entries)
        per_worker = max(
            self.options.total_budget_cycles // self.options.workers, 1)
        self.worker_budget = per_worker
        seeds = [derive_worker_seed(self.options.campaign_seed, index)
                 for index in range(self.options.workers)]
        self.handles = build_worker_handles(
            self.options.backend, worker_spec, seeds, per_worker,
            self.options.campaign_seed)
        self._status = [LIVE for _ in self.handles]
        self._lost: Set[int] = set()
        self._epochs_run = 0
        #: Optional live-dashboard callback, invoked on the coordinator
        #: thread at every epoch barrier with a summary dict (see
        #: :meth:`_epoch_summary`).  ``eof-fuzz campaign --dashboard``
        #: plugs the ANSI renderer in here.
        self.epoch_hook: Optional[Callable[[dict], None]] = None

    # -- the campaign -------------------------------------------------------

    def run(self) -> CampaignResult:
        """Run every epoch to completion and return the merged result."""
        opts = self.options
        try:
            self._start_workers()
            if self.obs.enabled:
                self.obs.bind_clock(self._campaign_clock)
                self.obs.emit("farm.campaign.start",
                              workers=opts.workers,
                              sync_interval=opts.sync_interval,
                              total_budget=opts.total_budget_cycles,
                              campaign_seed=opts.campaign_seed,
                              backend=opts.backend)
                self.obs.gauge("farm.backend").set(
                    BACKENDS.index(opts.backend))
            self._epoch_loop()
            return self._collect()
        finally:
            for handle in self.handles:
                handle.close()

    def _start_workers(self) -> None:
        """Boot every worker; process boots overlap, inline boots run
        one after another inside ``begin_start``."""
        for index, handle in enumerate(self.handles):
            try:
                handle.begin_start()
            except WorkerLost as lost:
                self._mark_lost(0, lost)
        for index, handle in enumerate(self.handles):
            if self._status[index] != LIVE:
                continue
            try:
                handle.join_start()
            except WorkerLost as lost:
                self._mark_lost(0, lost)
        if all(status == ABORTED for status in self._status):
            raise RuntimeError("every campaign worker failed to start")

    def _epoch_loop(self) -> None:
        while any(status == LIVE for status in self._status):
            self._epochs_run += 1
            epoch = self._epochs_run
            target = self._epoch_target(epoch)
            live = [index for index in range(len(self.handles))
                    if self._status[index] == LIVE]
            # Begin every board before joining any, so process children
            # run their epochs in parallel; inline boards run right here,
            # one after another.
            began = []
            for index in live:
                try:
                    self.handles[index].begin_epoch(epoch, target)
                    began.append(index)
                except WorkerLost as lost:
                    self._mark_lost(epoch, lost)
            outcomes: Dict[int, EpochOutcome] = {}
            for index in began:
                try:
                    outcomes[index] = self.handles[index].join_epoch()
                except WorkerLost as lost:
                    # The epoch died with the worker: its un-synced
                    # results are discarded, the campaign continues.
                    self._mark_lost(epoch, lost)
                    continue
                self._status[index] = outcomes[index].status
            self._sync(epoch, outcomes)
            self._persist_epoch(epoch)
            if self._stop_requested:
                # Honoured only at the barrier, *after* the epoch
                # persisted: the run stops on a committed epoch, so
                # a resume continues exactly where it left off.
                self._interrupted = True
                break

    def request_stop(self) -> None:
        """Ask the campaign to stop at the next epoch barrier.

        Safe to call from a signal handler: it only sets a flag; the
        coordinator checks it after each barrier has merged and
        journaled, then winds down cleanly.
        """
        self._stop_requested = True

    def _mark_lost(self, epoch: int, lost: WorkerLost) -> None:
        """Degrade a dead transport to a quarantined board."""
        self._status[lost.index] = ABORTED
        self._lost.add(lost.index)
        if self.obs.enabled:
            self.obs.counter("farm.workers.lost").inc()
            self.obs.emit("farm.worker.lost", worker=lost.index,
                          epoch=epoch, reason=lost.reason)
            if self.obs.flight is not None:
                self.obs.flight.dump("worker-lost",
                                     f"worker-{lost.index}",
                                     obs=self.obs)

    def _campaign_clock(self) -> int:
        """Campaign virtual time: the furthest worker clock."""
        cycles = 0
        for handle in self.handles:
            cycles = max(cycles, handle.cycles())
        return cycles

    def _epoch_target(self, epoch: int) -> int:
        if self.options.sync_interval <= 0:
            return self.worker_budget
        return min(epoch * self.options.sync_interval,
                   self.worker_budget)

    # -- the barrier --------------------------------------------------------

    def _sync(self, epoch: int,
              outcomes: Dict[int, EpochOutcome]) -> None:
        """Merge worker outcomes into the campaign, in worker order,
        then deliver imports."""
        with self.obs.span("sync"):
            for index in sorted(outcomes):
                self._push_outcome(index, epoch, outcomes[index])
            imported_total = 0
            for index, handle in enumerate(self.handles):
                if self._status[index] != LIVE:
                    continue
                imported_total += self._pull_worker(index, handle)
        if self.obs.enabled:
            self.obs.counter("farm.sync.epochs").inc()
            self.obs.gauge("farm.merged.edges").set(
                len(self.state.edges))
            self.obs.gauge("farm.shared.corpus").set(
                len(self.state.corpus))
            histogram = self.obs.histogram("farm.sync.delta.bytes",
                                           buckets=DELTA_BYTE_BUCKETS)
            for index in sorted(outcomes):
                histogram.record(outcomes[index].wire_bytes)
            self.obs.emit("farm.epoch", epoch=epoch,
                          merged_edges=len(self.state.edges),
                          shared_seeds=len(self.state.corpus),
                          imported=imported_total,
                          live_workers=sum(
                              1 for status in self._status
                              if status == LIVE))
        # The campaign-level time series samples at every barrier: one
        # row per epoch, timestamped with the epoch's target cycles (a
        # pure function of epoch and sync_interval, so replays match).
        self._last_imported = imported_total
        summary = None
        if self.obs.sampler is not None or self.epoch_hook is not None:
            summary = self._epoch_summary(epoch, imported_total)
        if self.obs.sampler is not None:
            self.obs.sampler.record(
                epoch, self._epoch_target(epoch), _epoch_row(summary))
        if self.epoch_hook is not None:
            self.epoch_hook(summary)

    def _push_outcome(self, index: int, epoch: int,
                      outcome: EpochOutcome) -> None:
        """Merge one worker's epoch delta (seeds, edges, crashes)."""
        # Push before merging the frontier delta: admission tests each
        # seed's footprint against *other* workers' edges; merging this
        # worker's coverage first would reject its own discoveries.
        admitted = self.state.push(index, epoch, outcome.entries)
        self.state.merge_edges(outcome.edges)
        for report in outcome.crashes:
            if self.state.record_crash(index, epoch, report):
                if self.obs.enabled:
                    self.obs.emit("farm.crash.new", worker=index,
                                  epoch=epoch, kind=report.kind,
                                  signature=report.signature())
        if self.obs.enabled and admitted:
            self.obs.counter("farm.seeds.shared").inc(admitted)

    def _pull_worker(self, index: int, handle) -> int:
        entries = self.state.pull(
            index, known_digests=handle.known_digests(),
            local_edges=handle.local_edges(),
            limit=self.options.import_cap,
            min_novelty=self.options.import_min_novelty)
        if not entries:
            return 0
        handle.deliver(entries)
        if self.obs.enabled:
            self.obs.counter("farm.seeds.imported").inc(len(entries))
        return len(entries)

    def _epoch_summary(self, epoch: int, imported: int) -> dict:
        """Deterministic barrier snapshot (sampler + dashboard feed)."""
        workers = []
        for index, handle in enumerate(self.handles):
            worker = handle.summary()
            worker["status"] = self._status[index]
            workers.append(worker)
        return {
            "epoch": epoch,
            "edges": len(self.state.edges),
            "lanes": [worker["edges"] for worker in workers],
            "programs": sum(w["execs"] for w in workers),
            "crashes": len(self.state.crashes),
            "shared": len(self.state.corpus),
            "imported": imported,
            "live": sum(1 for status in self._status
                        if status == LIVE),
            "workers_total": len(self.handles),
            "workers": workers,
        }

    # -- persistence (repro.db) ---------------------------------------------

    def _persist_epoch(self, epoch: int) -> None:
        """Journal the barrier that just completed (when a store rides
        along).

        A resumed campaign is a deterministic replay: epochs up to the
        stored one re-execute with journaling suppressed (they are
        already on disk), the resume barrier itself is *verified*
        against the store, and only epochs beyond it journal new work.
        """
        if self.store is None:
            return
        with self.obs.span("sync"):
            if epoch < self._resume_epoch:
                return
            if epoch == self._resume_epoch:
                self._verify_resume(epoch)
                return
            summary = self._epoch_summary(epoch, self._last_imported)
            self.store.record_epoch(epoch, self._epoch_target(epoch),
                                    self.state, _epoch_row(summary))

    def _verify_resume(self, epoch: int) -> None:
        """The replay reached the stored barrier: check it reproduced
        the persisted state, and if code drift broke the replay, fold
        the persisted findings back in rather than losing them."""
        mismatch = self.store.verify(
            self.state.edges, self.state.crashes.keys(),
            self.state.snapshot_digests())
        if mismatch:
            self.state.merge_edges(self.store.edges)
            for signature, record in self.store.crashes.items():
                if signature in self.state.crashes:
                    continue
                report = record.get("report")
                self.state.crashes[signature] = TriagedCrash(
                    report=CrashReport.from_dict(dict(report or {})),
                    first_worker=int(record.get("first_worker", 0)),
                    first_epoch=int(record.get("first_epoch", 0)),
                    count=int(record.get("count", 1)),
                    workers={int(w) for w in record.get("workers", ())})
        if self.obs.enabled:
            self.obs.emit("db.resume", epoch=epoch,
                          match=not mismatch, **{
                              f"drift_{key}": value
                              for key, value in mismatch.items()})

    # -- wrap-up ------------------------------------------------------------

    def _collect(self) -> CampaignResult:
        results = []
        for index, handle in enumerate(self.handles):
            result = handle.finish()
            results.append(result)
            if self.obs.enabled:
                self.obs.emit("farm.worker.done", worker=index,
                              edges=result.edges,
                              programs=result.stats.programs_executed,
                              aborted=self._status[index] == ABORTED)
        stats = CampaignStats(
            workers=[result.stats for result in results],
            merged_edges=len(self.state.edges),
            merged_unique_crashes=len(self.state.crashes),
            shared_corpus_size=len(self.state.corpus),
            sync_epochs=self._epochs_run,
            seeds_shared=self.state.seeds_shared,
            seeds_imported=self.state.seeds_imported,
            aborted_workers=sum(1 for status in self._status
                                if status == ABORTED),
            resumed_from_epoch=self._resume_epoch,
            interrupted=self._interrupted)
        if self.store is not None:
            # Every barrier is already journaled: a completed run's
            # store doubles as a warm-start corpus; an interrupted
            # run's is the resume point.
            self.store.close()
            if self.obs.enabled and self._interrupted:
                self.obs.emit("db.interrupted",
                              epoch=self._epochs_run,
                              resumable=True)
        if self.obs.enabled:
            self.obs.emit("farm.campaign.end",
                          merged_edges=stats.merged_edges,
                          unique_crashes=stats.merged_unique_crashes,
                          epochs=stats.sync_epochs,
                          shared=stats.seeds_shared,
                          imported=stats.seeds_imported)
        return CampaignResult(
            options=self.options, stats=stats, worker_results=results,
            edges=set(self.state.edges), crashes=dict(self.state.crashes),
            corpus_digests=self.state.snapshot_digests())
