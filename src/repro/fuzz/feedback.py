"""Coverage feedback: the host-side edge map and per-call credit.

Edges arrive from the drained on-target coverage buffer; the map answers
"did this input reach anything new?" (the corpus admission test) and
keeps per-API credit scores that bias generation toward calls that have
recently produced new coverage (§4.5's adjacency/recency scoring).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set

DECAY = 0.95


class CoverageMap:
    """Accumulated edge coverage plus per-call and adjacency credit.

    ``pair_credit`` is the §4.5 "call adjacency" score: consecutive API
    pairs that appeared in coverage-producing inputs are remembered, so
    generation learns orderings (probe before unlock before mount) that
    no type signature expresses.
    """

    def __init__(self) -> None:
        self.edges: Set[int] = set()
        self.call_credit: Dict[int, float] = {}
        self.pair_credit: Dict[tuple, float] = {}

    @property
    def edge_count(self) -> int:
        """Distinct edges seen so far — the "branches found" metric the
        paper's tables report."""
        return len(self.edges)

    def add_edges(self, edges: Iterable[int]) -> int:
        """Merge a drained buffer; returns how many edges were new."""
        return len(self.add_new(edges))

    def add_new(self, edges: Iterable[int]) -> List[int]:
        """Merge a drained buffer; returns the edges that were new.

        The list (in drain order) is what the engine records as a
        seed's edge footprint, so campaign sync can reason about which
        frontier a seed actually advanced.
        """
        new = []
        for edge in edges:
            if edge not in self.edges:
                self.edges.add(edge)
                new.append(edge)
        return new

    def credit_calls(self, api_ids: Iterable[int], new_edges: int) -> None:
        """Reward the calls *and consecutive pairs* of a productive input."""
        if new_edges <= 0:
            return
        sequence = list(api_ids)
        bonus = float(new_edges)
        for api_id in set(sequence):
            self.call_credit[api_id] = self.call_credit.get(api_id, 0.0) \
                + bonus
        for first, second in zip(sequence, sequence[1:]):
            key = (first, second)
            self.pair_credit[key] = self.pair_credit.get(key, 0.0) + bonus

    def decay_credit(self) -> None:
        """Age credit so "recent coverage" stays recent."""
        for api_id in list(self.call_credit):
            self.call_credit[api_id] *= DECAY
            if self.call_credit[api_id] < 0.01:
                del self.call_credit[api_id]
        for key in list(self.pair_credit):
            self.pair_credit[key] *= DECAY
            if self.pair_credit[key] < 0.01:
                del self.pair_credit[key]

    def credit_of(self, api_id: int) -> float:
        """Current recency credit of one API."""
        return self.call_credit.get(api_id, 0.0)

    def pair_credit_of(self, prev_api: int, api_id: int) -> float:
        """Adjacency credit of emitting ``api_id`` right after ``prev_api``."""
        return self.pair_credit.get((prev_api, api_id), 0.0)
