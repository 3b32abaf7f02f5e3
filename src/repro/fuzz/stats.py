"""Run statistics: coverage-over-time series and event counters.

Time is the target's cycle clock (deterministic virtual time); the
series is what the Figure 7/8 coverage-growth plots are drawn from.
Samples are recorded in nondecreasing cycle order (the engine's loop
guarantees it), which is what lets :meth:`FuzzStats.edges_at` binary
search instead of scanning Figure-7-length series.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field, fields
from typing import Dict, List, Sequence, Tuple

_INF_EDGES = float("inf")

#: FuzzStats fields that measure transport cost, not fuzzing outcome.
LINK_ACCOUNTING_FIELDS = ("link_transactions", "link_bytes")

#: FuzzStats fields that measure *how* state was restored, not what the
#: run found.  Snapshot-tier and reflash-tier runs of the same seed
#: necessarily differ here (and in every cycle timestamp downstream of a
#: recovery), so the restore-equivalence gate compares
#: ``semantic_dict(restore_invariant=True)``, which drops these and
#: projects the series onto its edge progression.
RESTORE_ACCOUNTING_FIELDS = (
    "restorations", "reboots", "reattaches",
    "snapshot_captures", "snapshot_restores", "snapshot_fallbacks",
    "snapshot_pages_written", "start_cycles")


def series_edges_at(series: Sequence[Tuple[int, int]], cycles: int) -> int:
    """Coverage at or before ``cycles`` in a (cycles, edges) series.

    The series must be sorted by cycle timestamp (as recorded); lookup
    is a binary search, so querying many timestamps against a long
    series (curve bands, report percentiles) stays cheap.
    """
    index = bisect_right(series, (cycles, _INF_EDGES))
    return series[index - 1][1] if index else 0


@dataclass
class FuzzStats:
    """Counters + coverage time series for one fuzzing run."""

    programs_executed: int = 0
    calls_executed: int = 0
    crashes_observed: int = 0
    unique_crashes: int = 0
    stalls: int = 0
    link_timeouts: int = 0
    restorations: int = 0
    reboots: int = 0
    recoveries: int = 0
    reattaches: int = 0
    recovery_failures: int = 0
    # Snapshot-tier restoration (repro.fuzz.snapshot): captures taken,
    # dirty-page restores served, verify-probe fallbacks to the reflash
    # ladder, and total pages written back.
    snapshot_captures: int = 0
    snapshot_restores: int = 0
    snapshot_fallbacks: int = 0
    snapshot_pages_written: int = 0
    cov_full_traps: int = 0
    rejected_programs: int = 0
    # Cross-worker seeds injected into this engine by campaign sync
    # (repro.farm); 0 for single-board runs.
    imported_seeds: int = 0
    # Statically-reachable edge universe for the run's build (from
    # repro.analysis.reach); 0 when analysis was unavailable.
    reachable_edges: int = 0
    # Debug-link accounting (repro.link): how many transactions and
    # frame bytes the run cost.  Excluded from semantic_dict(): they
    # measure how commands were grouped, not what the fuzzer found.
    link_transactions: int = 0
    link_bytes: int = 0
    # Cycle-clock reading when the fuzzing loop started: the profiler's
    # budget baseline (boot cycles are not the fuzzer's to spend).
    start_cycles: int = 0
    series: List[Tuple[int, int]] = field(default_factory=list)  # (cycles, edges)

    def record_point(self, cycles: int, edges: int) -> None:
        """Append a coverage sample (deduplicated per edge count).

        Flat stretches collapse to their first and latest sample, so the
        first-occurrence timestamp of every edge count is preserved.
        """
        if self.series and self.series[-1][1] == edges and \
                len(self.series) > 1 and self.series[-2][1] == edges:
            # Collapse flat stretches: keep first and latest sample.
            self.series[-1] = (cycles, edges)
            return
        self.series.append((cycles, edges))

    def final_edges(self) -> int:
        """Last coverage sample (0 if none)."""
        return self.series[-1][1] if self.series else 0

    def edges_at(self, cycles: int) -> int:
        """Coverage at or before a given cycle timestamp."""
        return series_edges_at(self.series, cycles)

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly dump (counters + series as [cycles, edges] pairs)."""
        data: Dict[str, object] = {
            f.name: getattr(self, f.name)
            for f in fields(self) if f.name != "series"}
        data["series"] = [[cycles, edges] for cycles, edges in self.series]
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FuzzStats":
        """Inverse of :meth:`to_dict`; ignores unknown keys."""
        counter_names = {f.name for f in fields(cls)} - {"series"}
        stats = cls(**{name: int(data.get(name, 0))
                       for name in counter_names})
        stats.series = [(int(cycles), int(edges))
                        for cycles, edges in data.get("series", [])]
        return stats

    def semantic_dict(self, restore_invariant: bool = False) \
            -> Dict[str, object]:
        """:meth:`to_dict` minus link accounting.

        This is the equality domain of a change that only regroups link
        commands: everything the fuzzer *found* (coverage, crashes,
        recoveries, the whole time series) must stay byte-identical;
        only the transport cost may differ.

        ``restore_invariant=True`` additionally drops the
        restore-accounting fields and replaces the ``(cycles, edges)``
        series with its edge progression — the equality domain of the
        snapshot-vs-reflash gate, where recovery *latency* is the whole
        point of the difference but every discovered edge and crash must
        still match exactly.
        """
        data = self.to_dict()
        for name in LINK_ACCOUNTING_FIELDS:
            data.pop(name, None)
        if restore_invariant:
            for name in RESTORE_ACCOUNTING_FIELDS:
                data.pop(name, None)
            data["series"] = [edges for _, edges in self.series]
        return data

    def coverage_saturation(self) -> float:
        """Fraction of the statically-reachable edge universe seen so far.

        0.0 when no universe was computed.  The universe is a structural
        estimate, so long runs can exceed 1.0 slightly; values are not
        clamped — an overshoot is a signal the estimate needs recalibration.
        """
        if self.reachable_edges <= 0:
            return 0.0
        return self.final_edges() / self.reachable_edges

    def summary(self) -> str:
        """One-line human summary."""
        line = (f"execs={self.programs_executed} edges={self.final_edges()} "
                f"crashes={self.unique_crashes}/{self.crashes_observed} "
                f"restores={self.restorations}")
        if self.reachable_edges > 0:
            line += f" saturation={self.coverage_saturation():.1%}"
        return line


@dataclass
class CampaignStats:
    """Per-worker + merged statistics of one multi-board campaign.

    ``merged_edges`` counts the union frontier across workers, so the
    basic consistency invariant is ``merged_edges >= max(per-worker
    edges)`` — replay-determinism tests assert it for every worker
    count.
    """

    workers: List[FuzzStats] = field(default_factory=list)
    merged_edges: int = 0
    merged_unique_crashes: int = 0
    shared_corpus_size: int = 0
    sync_epochs: int = 0
    seeds_shared: int = 0     # pushes admitted to the shared corpus
    seeds_imported: int = 0   # pulls delivered to some worker
    aborted_workers: int = 0  # RecoveryExhausted quarantines
    # Persistence (repro.db): the epoch a resumed campaign restarted
    # from (0 = fresh), and whether this run stopped at an interrupt
    # request instead of exhausting its budget.
    resumed_from_epoch: int = 0
    interrupted: bool = False

    @property
    def worker_count(self) -> int:
        return len(self.workers)

    def total_programs(self) -> int:
        """Programs executed across all boards."""
        return sum(stats.programs_executed for stats in self.workers)

    def max_worker_edges(self) -> int:
        """Best single-board frontier (merged_edges is >= this)."""
        return max((stats.final_edges() for stats in self.workers),
                   default=0)

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly dump (per-worker stats nested)."""
        return {
            "merged_edges": self.merged_edges,
            "merged_unique_crashes": self.merged_unique_crashes,
            "shared_corpus_size": self.shared_corpus_size,
            "sync_epochs": self.sync_epochs,
            "seeds_shared": self.seeds_shared,
            "seeds_imported": self.seeds_imported,
            "aborted_workers": self.aborted_workers,
            "resumed_from_epoch": self.resumed_from_epoch,
            "interrupted": self.interrupted,
            "workers": [stats.to_dict() for stats in self.workers],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "CampaignStats":
        """Inverse of :meth:`to_dict`; ignores unknown keys."""
        stats = cls(
            merged_edges=int(data.get("merged_edges", 0)),
            merged_unique_crashes=int(
                data.get("merged_unique_crashes", 0)),
            shared_corpus_size=int(data.get("shared_corpus_size", 0)),
            sync_epochs=int(data.get("sync_epochs", 0)),
            seeds_shared=int(data.get("seeds_shared", 0)),
            seeds_imported=int(data.get("seeds_imported", 0)),
            aborted_workers=int(data.get("aborted_workers", 0)),
            resumed_from_epoch=int(data.get("resumed_from_epoch", 0)),
            interrupted=bool(data.get("interrupted", False)))
        stats.workers = [FuzzStats.from_dict(worker)
                         for worker in data.get("workers", [])]
        return stats

    def summary(self) -> str:
        """One-line human summary of the whole campaign."""
        return (f"workers={self.worker_count} "
                f"merged_edges={self.merged_edges} "
                f"execs={self.total_programs()} "
                f"crashes={self.merged_unique_crashes} "
                f"shared={self.seeds_shared} "
                f"imported={self.seeds_imported} "
                f"epochs={self.sync_epochs}")
