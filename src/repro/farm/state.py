"""Shared campaign state: the global frontier, corpus and crash table.

One :class:`CampaignState` is shared by every worker of a multi-board
campaign (§5's parallel-board setup).  It holds

* the **global coverage frontier** — the union of every worker's edge
  set, merged at sync epochs,
* the **shared corpus** — a content-hash-deduplicated seed pool some
  worker admitted *and* that advanced the global frontier (or crashed);
  origin worker and epoch ride along for triage,
* the **crash triage table** — crash reports deduplicated by signature
  across workers, with per-signature observation counts.

The orchestrator merges into it on the coordinator thread, in
worker-index order, at each epoch barrier.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Set

from repro.fuzz.corpus import Corpus, CorpusEntry, MAX_CORPUS
from repro.fuzz.crash import CrashReport


@dataclass
class SeedProvenance:
    """Where a shared seed came from."""

    worker: int
    epoch: int


@dataclass
class TriagedCrash:
    """One cross-worker-unique crash."""

    report: CrashReport
    first_worker: int
    first_epoch: int
    count: int = 1
    workers: Set[int] = field(default_factory=set)


class CampaignState:
    """Shared state of one fuzzing campaign."""

    def __init__(self, max_corpus: int = MAX_CORPUS) -> None:
        self.edges: Set[int] = set()
        #: Resident seeds in admission order; past ``max_corpus`` the
        #: corpus evicts the lowest-weight seed (earliest admitted on
        #: ties).
        self.corpus = Corpus(max_entries=max_corpus)
        self.provenance: Dict[str, SeedProvenance] = {}
        self.crashes: Dict[str, TriagedCrash] = {}
        self.seeds_shared = 0
        self.seeds_imported = 0
        self.seeds_warmed = 0

    # -- coverage -----------------------------------------------------------

    def merge_edges(self, edges: Iterable[int]) -> int:
        """Fold one worker's frontier in; returns newly-global edges."""
        before = len(self.edges)
        self.edges.update(edges)
        return len(self.edges) - before

    # -- corpus sync --------------------------------------------------------

    def push(self, worker: int, epoch: int,
             entries: Sequence[CorpusEntry]) -> int:
        """Offer one worker's freshly-admitted seeds to the pool.

        A seed is admitted when its content hash is unseen *and* its
        edge footprint still contains an edge the global frontier lacks
        (crashers are admitted regardless: they are triage material even
        when another worker already covered their path).  Admitted
        footprints merge into the frontier immediately, so a later
        worker's duplicate discovery of the same edges is rejected —
        the push order is the dedup order.
        """
        admitted = 0
        for entry in entries:
            if entry.digest and entry.digest in self.corpus:
                continue
            novel = bool(entry.edge_footprint - self.edges)
            if not (novel or entry.crashed):
                continue
            if self.corpus.import_entry(entry) is None:
                continue
            self.provenance[entry.digest] = SeedProvenance(
                worker=worker, epoch=epoch)
            self.edges.update(entry.edge_footprint)
            self.seeds_shared += 1
            admitted += 1
        return admitted

    def pull(self, worker: int, known_digests: Set[str],
             local_edges: Set[int], limit: int,
             min_novelty: int = 1) -> List[CorpusEntry]:
        """Seeds some *other* worker found that are new to this one.

        Returns up to ``limit`` entries whose footprint contains at
        least ``min_novelty`` edges the puller has not covered — the
        "new-to-global edges only" import policy, applied against the
        puller's local frontier so replays are never pure
        re-execution.  Candidates are ranked by how many new-to-local
        edges they carry (admission order breaks ties), so a tight
        import cap spends replay budget on the most frontier-advancing
        seeds first.
        """
        ranked = []
        for index, entry in enumerate(self.corpus.entries):
            provenance = self.provenance.get(entry.digest)
            if provenance is None or provenance.worker == worker:
                continue
            if entry.digest in known_digests:
                continue
            novelty = len(entry.edge_footprint - local_edges)
            if novelty < max(min_novelty, 1):
                continue
            ranked.append((-novelty, index, entry))
        ranked.sort(key=lambda item: item[:2])
        out = [entry for _, _, entry in ranked[:limit]]
        self.seeds_imported += len(out)
        return out

    def warm_start(self, entries: Iterable[CorpusEntry]) -> int:
        """Pre-seed the shared pool from another campaign's store.

        Warm-start seeds enter the corpus under the pseudo-worker ``-1``
        — every real worker can pull them — but their footprints are
        *not* merged into the frontier: this campaign has not observed
        those edges, and claiming them would both inflate the headline
        metric and starve the novelty-ranked pull that is supposed to
        deliver the warm seeds in the first place.
        """
        count = 0
        for entry in entries:
            if self.corpus.import_entry(entry) is None:
                continue
            self.provenance[entry.digest] = SeedProvenance(
                worker=-1, epoch=0)
            self.seeds_warmed += 1
            count += 1
        return count

    # -- crash triage -------------------------------------------------------

    def record_crash(self, worker: int, epoch: int,
                     report: CrashReport) -> bool:
        """Merge one worker's unique crash; True if campaign-new."""
        signature = report.signature()
        triaged = self.crashes.get(signature)
        if triaged is not None:
            triaged.count += 1
            triaged.workers.add(worker)
            return False
        self.crashes[signature] = TriagedCrash(
            report=report, first_worker=worker, first_epoch=epoch,
            workers={worker})
        return True

    def crash_signatures(self) -> List[str]:
        """Campaign-unique crash signatures, first-seen order."""
        return list(self.crashes)

    def snapshot_digests(self) -> List[str]:
        """Shared-corpus content hashes, insertion order."""
        return self.corpus.digests()
