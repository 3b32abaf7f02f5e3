"""Seed corpus: interesting inputs and their scheduling weights.

An input is admitted when it triggered new coverage or revealed a fault
(§4.5); crash-revealing payloads get a weight bonus so they are mutated
more — the paper credits exactly this for reaching deeper paths (§5.4.2).

Entries are deduplicated by content hash (the wire encoding of the
program), which is also the identity shared-corpus sync uses to merge
corpora across campaign workers (``repro.farm``).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional

from repro.agent.protocol import (TestProgram, deserialize_program,
                                  serialize_program)
from repro.errors import ProtocolError
from repro.fuzz.rng import FuzzRng

CRASH_BONUS = 1.5
MAX_CORPUS = 4096


def program_hash(program: TestProgram) -> str:
    """Stable content identity of a test program.

    Hashes the wire encoding, so two programs that serialize to the same
    agent input are the same seed — the dedup key for both the local
    corpus and the campaign-wide shared corpus.  Programs the protocol
    cannot encode (over-long calls built by hostile tests) fall back to
    a structural repr, keeping the hash total.
    """
    try:
        raw = serialize_program(program)
    except ProtocolError:
        raw = repr(program.calls).encode("utf-8", "replace")
    return hashlib.sha256(raw).hexdigest()


@dataclass
class CorpusEntry:
    """One saved seed."""

    program: TestProgram
    new_edges: int = 0
    crashed: bool = False
    picks: int = 0
    exec_cycles: int = 0
    #: Content hash (assigned by :meth:`Corpus.add`).
    digest: str = ""
    #: The edges this seed newly contributed when it was admitted —
    #: what shared-corpus sync uses to decide "new to the global
    #: frontier" without re-executing the program.
    edge_footprint: FrozenSet[int] = field(default_factory=frozenset)

    def weight(self) -> float:
        """Scheduling weight (productive, fast, fresh seeds win)."""
        base = 1.0 + float(self.new_edges)
        if self.crashed:
            base += CRASH_BONUS
        # AFL-style perf score: fast seeds are mutated more, otherwise a
        # few slow-but-productive inputs monopolise the budget.
        speed_penalty = 1.0 + self.exec_cycles / 4000.0
        # Fresh seeds get explored before over-picked ones.
        return base / (speed_penalty * (1.0 + 0.1 * self.picks))


def entry_to_record(entry: CorpusEntry) -> Optional[Dict[str, object]]:
    """JSON-friendly persistence record of one seed (``repro.db``).

    The program rides along as the hex of its wire encoding — the same
    bytes the content hash covers, so a record is self-verifying against
    its digest.  Programs the protocol cannot encode (hostile-test
    constructions) return ``None``: they cannot be reconstructed, so the
    store skips rather than half-persists them.
    """
    try:
        raw = serialize_program(entry.program)
    except ProtocolError:
        return None
    return {
        "digest": entry.digest or program_hash(entry.program),
        "program": raw.hex(),
        "new_edges": entry.new_edges,
        "crashed": entry.crashed,
        "exec_cycles": entry.exec_cycles,
        "footprint": sorted(entry.edge_footprint),
    }


def entry_from_record(record: Dict[str, object]) -> CorpusEntry:
    """Inverse of :func:`entry_to_record`.

    Raises ``ProtocolError``/``ValueError`` on malformed records — the
    store catches these and quarantines the record instead of loading
    a seed it cannot trust.
    """
    program = deserialize_program(bytes.fromhex(str(record["program"])))
    return CorpusEntry(
        program=program,
        new_edges=int(record.get("new_edges", 0)),
        crashed=bool(record.get("crashed", False)),
        exec_cycles=int(record.get("exec_cycles", 0)),
        digest=str(record.get("digest", "")) or program_hash(program),
        edge_footprint=frozenset(
            int(edge) for edge in record.get("footprint", ())))


class Corpus:
    """The seed pool (content-hash deduplicated)."""

    def __init__(self, max_entries: int = MAX_CORPUS) -> None:
        self.entries: List[CorpusEntry] = []
        self.max_entries = max_entries
        self.total_added = 0
        self._by_digest: Dict[str, CorpusEntry] = {}

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, digest: str) -> bool:
        return digest in self._by_digest

    def digests(self) -> List[str]:
        """Content hashes of the current entries, insertion order."""
        return [entry.digest for entry in self.entries]

    def get(self, digest: str) -> Optional[CorpusEntry]:
        """Entry with the given content hash, if still resident."""
        return self._by_digest.get(digest)

    def add(self, program: TestProgram, new_edges: int,
            crashed: bool = False, exec_cycles: int = 0,
            edges: Iterable[int] = ()) -> CorpusEntry:
        """Admit an interesting input (idempotent per content hash).

        Re-adding a program already in the pool merges into the resident
        entry (best observed ``new_edges``, sticky ``crashed`` flag,
        union footprint) instead of growing the pool; ``total_added``
        counts admissions either way, so it stays monotone.
        """
        digest = program_hash(program)
        self.total_added += 1
        existing = self._by_digest.get(digest)
        if existing is not None:
            existing.new_edges = max(existing.new_edges, new_edges)
            existing.crashed = existing.crashed or crashed
            existing.edge_footprint = existing.edge_footprint | \
                frozenset(edges)
            return existing
        entry = CorpusEntry(program=program, new_edges=new_edges,
                            crashed=crashed, exec_cycles=exec_cycles,
                            digest=digest,
                            edge_footprint=frozenset(edges))
        self.entries.append(entry)
        self._by_digest[digest] = entry
        if len(self.entries) > self.max_entries:
            self._evict()
        return entry

    def _evict(self) -> None:
        """Eviction policy (pinned by regression test): drop the entry
        with the lowest current scheduling weight; among equal weights
        the earliest-admitted (stalest) entry loses.  The best-weighted
        entry can never be the victim."""
        victim = min(range(len(self.entries)),
                     key=lambda i: self.entries[i].weight())
        removed = self.entries.pop(victim)
        del self._by_digest[removed.digest]

    def remove(self, digest: str) -> Optional[CorpusEntry]:
        """Drop one entry by content hash; returns it, or None.

        The campaign's sharded shared corpus makes eviction a *global*
        decision across shards (``repro.farm.state``), so the policy
        lives there and each shard only needs targeted removal.
        """
        removed = self._by_digest.pop(digest, None)
        if removed is not None:
            for position, entry in enumerate(self.entries):
                if entry is removed:
                    del self.entries[position]
                    break
        return removed

    def import_entry(self, entry: CorpusEntry) -> Optional[CorpusEntry]:
        """Merge a foreign (shared-corpus) entry into this pool.

        Returns the resident entry, or None when it was already present
        — the caller uses that to count genuine imports.
        """
        if entry.digest and entry.digest in self._by_digest:
            return None
        resident = self.add(entry.program, entry.new_edges,
                            crashed=entry.crashed,
                            exec_cycles=entry.exec_cycles,
                            edges=entry.edge_footprint)
        return resident

    def pick(self, rng: FuzzRng) -> Optional[CorpusEntry]:
        """Weighted seed selection for mutation."""
        if not self.entries:
            return None
        entry = rng.pick_weighted(self.entries,
                                  [e.weight() for e in self.entries])
        entry.picks += 1
        return entry
