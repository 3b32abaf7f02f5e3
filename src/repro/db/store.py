"""The campaign store: content-addressed, crash-safe state on disk.

One :class:`CampaignStore` owns a *state directory*::

    state_dir/
      journal.eofj      append-only WAL (repro.db.journal frames)
      checkpoint.eofc   one whole-state snapshot (repro.db.checkpoint)
      corrupt/          quarantined bytes that failed verification

Everything a campaign learns — corpus entries keyed by content hash,
deduplicated crash signatures, the merged coverage frontier, the
per-epoch series — flows through the journal; every ``checkpoint_every``
epochs the journal is compacted into the checkpoint file.

Transaction model
-----------------
The unit of durability is the **epoch barrier**.  At each barrier the
orchestrator calls :meth:`record_epoch`, which appends the epoch's new
seed records (``S``) and crash records (``X``), then the epoch-commit
record (``E``), then fsyncs once.  The ``E`` record is the commit
point: on load, seed/crash records are buffered and only applied when
their commit arrives, so a kill mid-epoch loses at most the epoch in
flight — exactly the "resume from the last *completed* epoch" contract.

Salvage policy
--------------
Loading never raises on corrupt bytes.  An unreadable checkpoint is
moved into ``corrupt/`` and the journal replays from its start; corrupt
journal spans are quarantined to ``corrupt/`` and the scan resyncs on
the next frame magic; a torn tail (kill mid-append) is dropped
silently; records past the last commit are discarded.  The loader
reports all of it via the ``db.salvaged`` / ``db.quarantined`` metrics
and the :meth:`salvage_summary` dict, and the journal is rewritten
clean on open so damage never compounds.

The only errors the store *raises* are caller mistakes: starting a
fresh campaign on top of existing state without ``resume``
(:class:`~repro.errors.StoreError`), or resuming with options that do
not replay the persisted campaign
(:class:`~repro.errors.StoreConfigError`).
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, List, Optional, Set

from repro.db.checkpoint import read_checkpoint, write_checkpoint
from repro.db.io import atomic_write_bytes
from repro.db.journal import JournalRecord, JournalWriter, encode_record, read_journal
from repro.errors import StoreConfigError, StoreError
from repro.fuzz.corpus import CorpusEntry, entry_from_record
from repro.obs import NULL_OBS, Observability

__all__ = ["CampaignStore", "STORE_SCHEMA_MAJOR", "JOURNAL_FILE",
           "CHECKPOINT_FILE", "CORRUPT_DIR"]

JOURNAL_FILE = "journal.eofj"
CHECKPOINT_FILE = "checkpoint.eofc"
CORRUPT_DIR = "corrupt"

#: Major version stamped into checkpoints; bumped when the snapshot
#: layout changes incompatibly.  A checkpoint with a different major is
#: quarantined, not guessed at.
STORE_SCHEMA_MAJOR = 1

#: Journal record types.  ``C`` is reserved by the checkpoint file.
REC_META = "M"     # campaign config, written once at store creation
REC_SEED = "S"     # one corpus entry (program bytes + footprint + origin)
REC_CRASH = "X"    # one campaign-unique crash signature
REC_EPOCH = "E"    # epoch commit: frontier delta + series row


class CampaignStore:
    """Durable mirror of one campaign's shared state."""

    #: Concurrency contract (EOF401/EOF405): the store is driven from
    #: the CLI and the orchestrator's epoch barrier only, never from a
    #: signal handler.  ``@main`` makes the analyzer enforce exactly
    #: that.
    GUARDED_BY = {
        "config": "@main",
        "epoch": "@main",
        "edges": "@main",
        "entries": "@main",
        "crashes": "@main",
        "series": "@main",
        "tallies": "@main",
        "salvaged_records": "@main",
        "quarantined_spans": "@main",
        "quarantined_bytes": "@main",
        "torn_tail_bytes": "@main",
        "dropped_uncommitted": "@main",
        "resumed_from_epoch": "@main",
        "_digests": "@main",
        "_writer": "@main",
        "_last_checkpoint_epoch": "@main",
        "_epoch_records": "@main",
    }

    def __init__(self, root: str, obs: Optional[Observability] = None,
                 durable: bool = True, checkpoint_every: int = 4):
        self.root = str(root)
        self.obs = obs or NULL_OBS
        self.durable = durable
        if checkpoint_every < 1:
            raise StoreError("checkpoint_every must be >= 1")
        self.checkpoint_every = checkpoint_every

        # Mirror state (what load() reconstructs and record_epoch extends).
        self.config: Optional[Dict[str, object]] = None
        self.epoch = 0                       # last *committed* epoch
        self.edges: Set[int] = set()
        self.entries: List[Dict[str, object]] = []
        self.crashes: Dict[str, Dict[str, object]] = {}
        self.series: List[Dict[str, object]] = []
        self.tallies: Dict[str, int] = {}

        # Salvage accounting for the most recent load.
        self.salvaged_records = 0
        self.quarantined_spans = 0
        self.quarantined_bytes = 0
        self.torn_tail_bytes = 0
        self.dropped_uncommitted = 0
        self.resumed_from_epoch = 0

        self._digests: Set[str] = set()
        self._writer: Optional[JournalWriter] = None
        self._last_checkpoint_epoch = 0
        self._epoch_records = 0              # journal E records since compaction

    # -- paths ---------------------------------------------------------------

    @property
    def journal_path(self) -> str:
        return os.path.join(self.root, JOURNAL_FILE)

    @property
    def checkpoint_path(self) -> str:
        return os.path.join(self.root, CHECKPOINT_FILE)

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
        tail = self._load()
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
        self._open_writer(tail)
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
        """Reconstruct mirror state; returns the post-checkpoint record
        tail (in journal order) that the compacted journal must keep."""
        snapshot = read_checkpoint(self.checkpoint_path)
        if snapshot is None:
            self._quarantine_file(self.checkpoint_path, "checkpoint")
        elif int(snapshot.get("v", 0)) != STORE_SCHEMA_MAJOR:
            self._quarantine_file(self.checkpoint_path, "checkpoint")
            snapshot = None
        if snapshot is not None:
            self._install_snapshot(snapshot)
        scan = read_journal(self.journal_path)
        self.salvaged_records = scan.salvaged
        self.torn_tail_bytes = scan.torn_tail_bytes
        if scan.corrupt_spans:
            self._quarantine_spans(scan.corrupt_spans)

        # Apply the journal on top of the checkpoint.  Seed and crash
        # records buffer until their epoch commit; an epoch already
        # folded into the checkpoint is skipped (its records are
        # already in the snapshot).
        tail: List[JournalRecord] = []
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
                tail.append(buffered)
            pending.clear()
            self._apply(record)
            tail.append(record)
        self.dropped_uncommitted = len(pending)
        return tail

    def _install_snapshot(self, snapshot: Dict[str, object]) -> None:
        self.config = dict(snapshot.get("config") or {}) or None
        self.epoch = int(snapshot.get("epoch", 0))
        self.edges = {int(edge) for edge in snapshot.get("edges", ())}
        self.entries = [dict(rec) for rec in snapshot.get("entries", ())]
        self.crashes = {str(rec.get("signature", "")): dict(rec)
                        for rec in snapshot.get("crashes", ())}
        self.series = [dict(row) for row in snapshot.get("series", ())]
        self.tallies = {str(k): int(v) for k, v in
                        dict(snapshot.get("tallies") or {}).items()}
        self._digests = {str(rec.get("digest", "")) for rec in self.entries}
        self._last_checkpoint_epoch = self.epoch

    def _apply(self, record: JournalRecord) -> None:
        payload = record.payload
        if record.rtype == REC_SEED:
            digest = str(payload.get("digest", ""))
            if digest and digest not in self._digests:
                self._digests.add(digest)
                self.entries.append(dict(payload))
        elif record.rtype == REC_CRASH:
            signature = str(payload.get("signature", ""))
            if signature and signature not in self.crashes:
                self.crashes[signature] = dict(payload)
        elif record.rtype == REC_EPOCH:
            self.epoch = int(payload.get("epoch", self.epoch))
            self.edges.update(int(e) for e in payload.get("edges_new", ()))
            row = {k: payload[k] for k in payload if k != "edges_new"}
            self.series.append(row)
            for key in ("shared_total", "imported_total"):
                if key in payload:
                    self.tallies[key] = int(payload[key])

    def _open_writer(self, tail: List[JournalRecord]) -> None:
        """Start appending; rewrite the journal first when the on-disk
        bytes differ from the clean form (salvage, torn tail, dropped
        uncommitted records, or epochs already folded into the
        checkpoint) so damage never accumulates across restarts."""
        clean = encode_record(REC_META, self.config or {})
        clean += b"".join(encode_record(r.rtype, r.payload) for r in tail)
        existing = b""
        try:
            with open(self.journal_path, "rb") as fh:
                existing = fh.read()
        except FileNotFoundError:
            pass
        if existing != clean:
            atomic_write_bytes(self.journal_path, clean,
                               durable=self.durable)
        self._epoch_records = sum(
            1 for r in tail if r.rtype == REC_EPOCH)
        self._writer = JournalWriter(self.journal_path,
                                     durable=self.durable)

    # -- quarantine ----------------------------------------------------------

    def _quarantine_target(self, label: str, suffix: str) -> str:
        os.makedirs(self.corrupt_dir, exist_ok=True)
        ordinal = sum(1 for name in os.listdir(self.corrupt_dir)
                      if name.startswith(label + "-"))
        return os.path.join(self.corrupt_dir,
                            f"{label}-{ordinal:03d}{suffix}")

    def _quarantine_file(self, path: str, label: str) -> None:
        """Move an unreadable file into ``corrupt/`` (missing = no-op)."""
        if not os.path.exists(path):
            return
        target = self._quarantine_target(label, ".quarantined")
        os.replace(path, target)
        self.quarantined_spans += 1
        self.quarantined_bytes += os.path.getsize(target)
        if self.obs.enabled:
            self.obs.emit("db.quarantined", source=label, path=target)

    def _quarantine_spans(self, spans: List[bytes]) -> None:
        blob = b"".join(spans)
        target = self._quarantine_target("journal", ".bin")
        atomic_write_bytes(target, blob, durable=self.durable)
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
        epoch's new seeds and crashes, then the commit record, then
        fsyncs once; auto-checkpoints every ``checkpoint_every`` epochs.
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
            mirror = self.crashes.get(signature)
            if mirror is None:
                record = {
                    "signature": signature,
                    "first_worker": triaged.first_worker,
                    "first_epoch": triaged.first_epoch,
                    "count": triaged.count,
                    "workers": sorted(triaged.workers),
                    "report": triaged.report.to_dict(),
                }
                self.crashes[signature] = record
                self._writer.append(REC_CRASH, record)
            else:
                # Counts keep moving after first sight; refresh the
                # mirror so the next checkpoint persists them.
                mirror["count"] = triaged.count
                mirror["workers"] = sorted(triaged.workers)
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
        self._epoch_records += 1
        if self.obs.enabled:
            self.obs.counter("db.journal.records").inc(
                self._writer.records_written - records_before)
            self.obs.counter("db.journal.bytes").inc(
                self._writer.bytes_written - bytes_before)
        if epoch - self._last_checkpoint_epoch >= self.checkpoint_every:
            self.checkpoint()

    # -- checkpointing -------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """The complete JSON-friendly state (the checkpoint payload)."""
        return {
            "v": STORE_SCHEMA_MAJOR,
            "config": dict(self.config or {}),
            "epoch": self.epoch,
            "edges": sorted(self.edges),
            "entries": list(self.entries),
            "crashes": [self.crashes[sig] for sig in self.crashes],
            "series": list(self.series),
            "tallies": dict(self.tallies),
        }

    def checkpoint(self) -> None:
        """Write the snapshot atomically, then compact the journal."""
        if self._writer is not None:
            self._writer.sync()
        write_checkpoint(self.checkpoint_path, self.snapshot(),
                         durable=self.durable)
        self._last_checkpoint_epoch = self.epoch
        # Compact: everything journaled so far is in the checkpoint, so
        # the journal restarts at just the meta record.  A kill between
        # the two atomic replaces leaves checkpoint+old-journal, which
        # the loader handles by skipping already-folded epochs.
        if self._writer is not None:
            self._writer.close()
            atomic_write_bytes(self.journal_path,
                               encode_record(REC_META, self.config or {}),
                               durable=self.durable)
            self._writer = JournalWriter(self.journal_path,
                                         durable=self.durable)
            self._epoch_records = 0
        if self.obs.enabled:
            self.obs.counter("db.checkpoints").inc()
            self.obs.emit("db.checkpoint", epoch=self.epoch,
                          entries=len(self.entries),
                          crashes=len(self.crashes),
                          edges=len(self.edges))

    def close(self, final_checkpoint: bool = True) -> None:
        """Flush everything; optionally fold the journal one last time."""
        if self._writer is None:
            return
        if final_checkpoint:
            self.checkpoint()
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
                b"".join(encode_record(REC_SEED, rec) for rec in bad),
                durable=self.durable)
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
