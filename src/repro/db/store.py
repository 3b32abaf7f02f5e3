"""The campaign store: content-addressed, crash-safe state on disk.

One :class:`CampaignStore` owns a *state directory*::

    state_dir/
      journal.eofj      the whole store: append-only repro.db.journal frames
      corrupt/          quarantined bytes that failed verification

Everything a campaign learns — corpus entries keyed by content hash,
deduplicated crash signatures, the merged coverage frontier, the
per-epoch series — flows through the journal.  Every record holds only
what is new since the previous barrier, so the journal is never
compacted: it stays about the size of a full snapshot of the same
state.

Transaction model
-----------------
The unit of durability is the **epoch barrier**.  At each barrier the
orchestrator calls :meth:`record_epoch`, which appends the epoch's new
seed records (``S``) and crash records (``X``), then the epoch-commit
record (``E``), then fsyncs once.  The ``E`` record is the commit
point: on load, seed/crash records are buffered and only applied when
their commit arrives, so a kill mid-epoch loses at most the epoch in
flight — exactly the "resume from the last *completed* epoch" contract.
A crash seen again after first sight gets a fresh ``X`` record at the
barrier where its count or board set changed; on load the latest
record of a signature wins.

Salvage policy
--------------
Loading never raises on corrupt bytes.  Corrupt journal spans are
quarantined to ``corrupt/`` and the scan resyncs on the next frame
magic; a torn tail (kill mid-append) is dropped silently; records past
the last commit are discarded.  The loader reports all of it via the
``db.salvaged`` / ``db.quarantined`` metrics and the
:meth:`salvage_summary` dict, and the journal is rewritten clean on
open so damage never compounds.

The store raises :class:`~repro.errors.StoreError` when starting a
fresh campaign on top of existing state without ``resume``, and for a
directory that holds ``checkpoint.eofc``: an older version compacted
its journal into that file, so the journal lacks every epoch up to the
compaction and is refused rather than half-read.  Resuming with
options that do not replay the persisted campaign raises
:class:`~repro.errors.StoreConfigError`.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, List, Optional, Set

from repro.db.io import atomic_write_bytes
from repro.db.journal import JournalRecord, JournalWriter, encode_record, read_journal
from repro.errors import StoreConfigError, StoreError
from repro.fuzz.corpus import CorpusEntry, entry_from_record
from repro.obs import NULL_OBS, Observability

__all__ = ["CampaignStore", "JOURNAL_FILE", "CORRUPT_DIR"]

JOURNAL_FILE = "journal.eofj"
CORRUPT_DIR = "corrupt"

#: What older versions compacted the journal into; its presence means
#: the journal beside it is missing epochs.
LEGACY_CHECKPOINT_FILE = "checkpoint.eofc"

#: Journal record types.
REC_META = "M"     # campaign config, written once at store creation
REC_SEED = "S"     # one corpus entry (program bytes + footprint + origin)
REC_CRASH = "X"    # one crash signature, re-appended when it is seen again
REC_EPOCH = "E"    # epoch commit: frontier delta + series row


class CampaignStore:
    """Durable mirror of one campaign's shared state."""

    def __init__(self, root: str, obs: Optional[Observability] = None):
        self.root = str(root)
        self.obs = obs or NULL_OBS

        # Mirror state (what load() reconstructs and record_epoch extends).
        self.config: Optional[Dict[str, object]] = None
        self.epoch = 0                       # last *committed* epoch
        self.edges: Set[int] = set()
        self.entries: List[Dict[str, object]] = []
        self.crashes: Dict[str, Dict[str, object]] = {}
        self.series: List[Dict[str, object]] = []

        # Salvage accounting for the most recent load.
        self.salvaged_records = 0
        self.quarantined_spans = 0
        self.quarantined_bytes = 0
        self.torn_tail_bytes = 0
        self.dropped_uncommitted = 0
        self.resumed_from_epoch = 0

        self._digests: Set[str] = set()
        self._writer: Optional[JournalWriter] = None

    # -- paths ---------------------------------------------------------------

    @property
    def journal_path(self) -> str:
        return os.path.join(self.root, JOURNAL_FILE)

    @property
    def corrupt_dir(self) -> str:
        return os.path.join(self.root, CORRUPT_DIR)

    # -- opening -------------------------------------------------------------

    @classmethod
    def read(cls, root: str, obs: Optional[Observability] = None
             ) -> "CampaignStore":
        """Load a state directory without going live (no journal writer,
        no config check) — the warm-start and inspection path.  Salvage
        still applies: corrupt bytes are quarantined on the way in."""
        store = cls(root, obs=obs)
        store._load()
        return store

    def open(self, config: Dict[str, object], resume: bool = False
             ) -> "CampaignStore":
        """Load persisted state (salvaging what verifies) and go live.

        ``config`` is the campaign's full option set; it is persisted on
        first open and compared on every later one.  Without ``resume``
        the directory must hold no completed work; with it, a matching
        config resumes from the last committed epoch (an *empty*
        directory resumes from epoch 0, i.e. a fresh start — a campaign
        killed before its first barrier has nothing to replay).
        """
        os.makedirs(self.root, exist_ok=True)
        committed = self._load()
        if self.config is not None:
            mismatch = sorted(
                key for key in set(self.config) | set(config)
                if self.config.get(key) != config.get(key))
            if mismatch:
                raise StoreConfigError(
                    "cannot resume: persisted campaign differs in "
                    + ", ".join(mismatch))
        has_state = bool(self.epoch or self.entries or self.crashes)
        if has_state and not resume:
            raise StoreError(
                f"{self.root} already holds a campaign through epoch "
                f"{self.epoch}; pass resume (or use a fresh directory)")
        self.resumed_from_epoch = self.epoch if resume else 0
        self.config = dict(config)
        self._open_writer(committed)
        if self.obs.enabled:
            self.obs.emit("db.open", epoch=self.epoch,
                          entries=len(self.entries),
                          crashes=len(self.crashes),
                          edges=len(self.edges),
                          salvaged=self.salvaged_records,
                          quarantined=self.quarantined_spans,
                          torn_tail_bytes=self.torn_tail_bytes,
                          dropped_uncommitted=self.dropped_uncommitted,
                          resume=resume)
            self.obs.counter("db.salvaged").inc(self.salvaged_records)
            if self.quarantined_spans:
                self.obs.counter("db.quarantined").inc(
                    self.quarantined_spans)
                self.obs.counter("db.quarantined.bytes").inc(
                    self.quarantined_bytes)
            if self.dropped_uncommitted:
                self.obs.counter("db.uncommitted").inc(
                    self.dropped_uncommitted)
        return self

    def _load(self) -> List[JournalRecord]:
        """Reconstruct mirror state; returns the committed records (in
        journal order) that the clean journal keeps."""
        legacy = os.path.join(self.root, LEGACY_CHECKPOINT_FILE)
        if os.path.exists(legacy):
            raise StoreError(
                f"{legacy} was left by an older version that compacted "
                f"the journal into it, so the journal lacks those "
                f"epochs; start over in a fresh directory")
        scan = read_journal(self.journal_path)
        self.salvaged_records = scan.salvaged
        self.torn_tail_bytes = scan.torn_tail_bytes
        if scan.corrupt_spans:
            self._quarantine_spans(scan.corrupt_spans)

        # Seed and crash records buffer until their epoch commit.  The
        # journal is input read from disk, so a commit that does not
        # advance the epoch is dropped together with its records.
        committed: List[JournalRecord] = []
        pending: List[JournalRecord] = []
        for record in scan.records:
            if record.rtype == REC_META:
                if self.config is None:
                    self.config = dict(record.payload)
                continue
            if record.rtype in (REC_SEED, REC_CRASH):
                pending.append(record)
                continue
            if record.rtype != REC_EPOCH:
                continue  # unknown type from a newer minor: ignore
            epoch = int(record.payload.get("epoch", 0))
            if epoch <= self.epoch:
                pending.clear()
                continue
            for buffered in pending:
                self._apply(buffered)
                committed.append(buffered)
            pending.clear()
            self._apply(record)
            committed.append(record)
        self.dropped_uncommitted = len(pending)
        return committed

    def _apply(self, record: JournalRecord) -> None:
        payload = record.payload
        if record.rtype == REC_SEED:
            digest = str(payload.get("digest", ""))
            if digest and digest not in self._digests:
                self._digests.add(digest)
                self.entries.append(dict(payload))
        elif record.rtype == REC_CRASH:
            signature = str(payload.get("signature", ""))
            if signature:
                # The latest record wins; the dict keeps first-seen order.
                self.crashes[signature] = dict(payload)
        elif record.rtype == REC_EPOCH:
            self.epoch = int(payload.get("epoch", self.epoch))
            self.edges.update(int(e) for e in payload.get("edges_new", ()))
            row = {k: payload[k] for k in payload if k != "edges_new"}
            self.series.append(row)

    def _open_writer(self, committed: List[JournalRecord]) -> None:
        """Start appending; rewrite the journal first when the on-disk
        bytes differ from the clean form (salvage, torn tail, dropped
        uncommitted records) so damage never accumulates across
        restarts."""
        clean = encode_record(REC_META, self.config or {})
        clean += b"".join(encode_record(r.rtype, r.payload) for r in committed)
        existing = b""
        try:
            with open(self.journal_path, "rb") as fh:
                existing = fh.read()
        except FileNotFoundError:
            pass
        if existing != clean:
            atomic_write_bytes(self.journal_path, clean)
        self._writer = JournalWriter(self.journal_path)

    # -- quarantine ----------------------------------------------------------

    def _quarantine_target(self, label: str, suffix: str) -> str:
        os.makedirs(self.corrupt_dir, exist_ok=True)
        ordinal = sum(1 for name in os.listdir(self.corrupt_dir)
                      if name.startswith(label + "-"))
        return os.path.join(self.corrupt_dir,
                            f"{label}-{ordinal:03d}{suffix}")

    def _quarantine_spans(self, spans: List[bytes]) -> None:
        blob = b"".join(spans)
        target = self._quarantine_target("journal", ".bin")
        atomic_write_bytes(target, blob)
        count = len(spans)
        self.quarantined_spans += count
        self.quarantined_bytes += len(blob)
        if self.obs.enabled:
            self.obs.emit("db.quarantined", source="journal",
                          spans=count, path=target)

    # -- recording -----------------------------------------------------------

    def record_epoch(self, epoch: int, target_cycles: int, state,
                     row: Dict[str, object]) -> None:
        """Journal one completed epoch barrier (the commit unit).

        ``state`` is the campaign's live shared state (duck-typed
        :class:`repro.farm.state.CampaignState`); ``row`` is the
        barrier's summary row (the time-series schema).  Appends the
        epoch's new seeds, its new and re-triaged crashes, then the
        commit record, then fsyncs once.
        """
        if self._writer is None:
            raise StoreError("store is not open")
        from repro.fuzz.corpus import entry_to_record
        records_before = self._writer.records_written
        bytes_before = self._writer.bytes_written
        for entry in state.corpus.entries:
            if entry.digest in self._digests:
                continue
            record = entry_to_record(entry)
            if record is None:
                continue  # unserializable hostile program: skip whole
            origin = state.provenance.get(entry.digest)
            if origin is not None:
                record["worker"] = origin.worker
                record["origin_epoch"] = origin.epoch
            self._digests.add(entry.digest)
            self.entries.append(record)
            self._writer.append(REC_SEED, record)
        for signature, triaged in state.crashes.items():
            workers = sorted(triaged.workers)
            mirror = self.crashes.get(signature)
            if mirror is not None and mirror.get("count") == triaged.count \
                    and mirror.get("workers") == workers:
                continue
            record = {
                "signature": signature,
                "first_worker": triaged.first_worker,
                "first_epoch": triaged.first_epoch,
                "count": triaged.count,
                "workers": workers,
                "report": triaged.report.to_dict(),
            }
            self.crashes[signature] = record
            self._writer.append(REC_CRASH, record)
        commit: Dict[str, object] = {
            "epoch": epoch,
            "cycles": target_cycles,
            "edges_new": sorted(set(state.edges) - self.edges),
            "shared_total": state.seeds_shared,
            "imported_total": state.seeds_imported,
        }
        for key, value in row.items():
            commit.setdefault(key, value)
        self._writer.append(REC_EPOCH, commit)
        self._writer.sync()
        self._apply(JournalRecord(REC_EPOCH, commit))
        if self.obs.enabled:
            self.obs.counter("db.journal.records").inc(
                self._writer.records_written - records_before)
            self.obs.counter("db.journal.bytes").inc(
                self._writer.bytes_written - bytes_before)

    def close(self) -> None:
        """Sync and close the journal (idempotent)."""
        if self._writer is None:
            return
        self._writer.close()
        self._writer = None

    # -- reading back --------------------------------------------------------

    def corpus_entries(self) -> List[CorpusEntry]:
        """Decode every persisted seed; malformed records quarantine."""
        out: List[CorpusEntry] = []
        bad: List[Dict[str, object]] = []
        for record in self.entries:
            try:
                out.append(entry_from_record(record))
            except Exception:
                bad.append(record)
        if bad:
            target = self._quarantine_target("entries", ".bin")
            atomic_write_bytes(
                target,
                b"".join(encode_record(REC_SEED, rec) for rec in bad))
            self.quarantined_spans += len(bad)
            if self.obs.enabled:
                self.obs.counter("db.quarantined").inc(len(bad))
                self.obs.emit("db.quarantined", source="entries",
                              spans=len(bad), path=target)
        return out

    def crash_signatures(self) -> List[str]:
        """Persisted campaign-unique signatures, first-seen order."""
        return list(self.crashes)

    def verify(self, edges: Iterable[int], crash_signatures: Iterable[str],
               digests: Iterable[str]) -> Dict[str, object]:
        """Compare live state against the mirror at a resume barrier.

        Returns an empty dict on a perfect match; otherwise a summary
        of what diverged (the caller decides whether to merge the
        persisted findings in or fail loudly).  The corpus check is a
        superset test: the store never evicts, the live pool may.
        """
        live_edges = set(int(e) for e in edges)
        live_sigs = set(crash_signatures)
        live_digests = set(digests)
        mismatch: Dict[str, object] = {}
        if live_edges != self.edges:
            mismatch["edges"] = {"live": len(live_edges),
                                 "stored": len(self.edges)}
        if live_sigs != set(self.crashes):
            mismatch["crashes"] = {"live": len(live_sigs),
                                   "stored": len(self.crashes)}
        missing = live_digests - self._digests
        # Unserializable programs legitimately never persist; only
        # count digests the store *should* have had.
        if missing:
            mismatch["corpus"] = {"missing": len(missing)}
        return mismatch

    def salvage_summary(self) -> Dict[str, int]:
        """What the last load kept, dropped and lost (CLI/CI surface)."""
        return {
            "salvaged_records": self.salvaged_records,
            "quarantined_spans": self.quarantined_spans,
            "quarantined_bytes": self.quarantined_bytes,
            "torn_tail_bytes": self.torn_tail_bytes,
            "dropped_uncommitted": self.dropped_uncommitted,
            "resumed_from_epoch": self.resumed_from_epoch,
        }
