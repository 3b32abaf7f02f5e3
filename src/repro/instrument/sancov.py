"""The on-target coverage tracer and its buffer protocol.

Wire format of the coverage buffer (a byte range in target RAM)::

    u32 count          number of edge records that follow
    u32 edge[count]    (prev_site << 16) | cur_site

The count word is the target's write index, as in a SanCov buffer that
keeps its count in the buffer: the tracer reads it back when the core
resumes, so a host drain (which zeroes it) makes the next run append
from 0.  Between a resume and the next halt the tracer keeps new records
in a list; when the core halts, the records, the count word and the drain
generation word land in RAM in one write.  A halt is the only time the
debug port can read RAM, so the host sees exactly what per-record writes
would have left there.

The tracer stops appending once the buffer is full and raises a *pending
trap* flag; the execution agent notices it at the next safe point and
halts at ``_kcmp_buf_full`` so the host can drain and clear the buffer
(§4.5.1, Figure 5).
"""

from __future__ import annotations

import struct
from typing import List, Optional, Set

from repro.hw.memory import Ram
from repro.instrument.sites import SiteTable

COV_HEADER_BYTES = 4
COV_RECORD_BYTES = 4

# Cycle cost of one __sanitizer_cov_trace callback; this is the knob that
# produces the paper's §5.5.2 execution overhead.
TRACE_CYCLE_COST = 18


def edge_id(prev_site: int, cur_site: int) -> int:
    """Pack an edge into one 32-bit record (sites are < 2**16)."""
    return ((prev_site & 0xFFFF) << 16) | (cur_site & 0xFFFF)


def decode_coverage_buffer(raw: bytes, obs=None) -> List[int]:
    """Host-side: decode a drained coverage buffer into edge ids.

    A header ``count`` larger than the drained bytes can hold means the
    drain lost records (short read, desynced link).  The decode still
    clamps — partial coverage beats none — but the loss is never silent:
    with an enabled ``obs`` it increments the ``cov.truncated`` counter
    and emits a ``cov.truncated`` event carrying how much went missing.
    """
    if len(raw) < COV_HEADER_BYTES:
        return []
    count = int.from_bytes(raw[:4], "little")
    max_records = (len(raw) - COV_HEADER_BYTES) // COV_RECORD_BYTES
    if count > max_records:
        if obs is not None and obs.enabled:
            obs.counter("cov.truncated").inc(count - max_records)
            obs.emit("cov.truncated", lost_records=count - max_records,
                     header_count=count, capacity=max_records)
        count = max_records
    return list(struct.unpack_from(f"<{count}I", raw, COV_HEADER_BYTES))


class SancovTracer:
    """Target-side edge tracer writing into a RAM-resident buffer.

    ``enabled_modules`` restricts which modules carry instrumentation
    (``None`` = all).  When a module is excluded its functions have *no*
    callbacks at all, so they neither record edges nor update the
    previous-site state nor pay the cycle cost — matching how a real
    build would simply not instrument those translation units.
    """

    def __init__(self, ram: Ram, buf_addr: int, buf_size: int,
                 site_table: SiteTable,
                 enabled_modules: Optional[Set[str]] = None,
                 enabled: bool = True, gen_addr: int = 0):
        if buf_size < COV_HEADER_BYTES + COV_RECORD_BYTES:
            raise ValueError("coverage buffer too small")
        self.ram = ram
        self.buf_addr = buf_addr
        self.buf_size = buf_size
        self.gen_addr = gen_addr
        self.generation = 0
        self.site_table = site_table
        self.enabled_modules = (set(enabled_modules)
                                if enabled_modules is not None else None)
        self.enabled = enabled
        self.capacity = (buf_size - COV_HEADER_BYTES) // COV_RECORD_BYTES
        self.prev_site = 0
        self.trap_pending = False
        self.total_hits = 0       # lifetime callback count (stats)
        self.dropped_hits = 0     # hits lost while the buffer was full
        self._count = 0           # write index: records in RAM + pending
        self._pending: List[int] = []
        self._last_edge = -1

    def module_enabled(self, module: str) -> bool:
        """Is instrumentation compiled into ``module``?"""
        if not self.enabled:
            return False
        return self.enabled_modules is None or module in self.enabled_modules

    def reset_run_state(self) -> None:
        """Forget the previous site (start of a fresh test case)."""
        self.prev_site = 0
        self._last_edge = -1

    def clear(self) -> None:
        """Zero the buffer header (host does this after draining)."""
        self._count = 0
        self._pending.clear()
        self.trap_pending = False
        self._last_edge = -1
        self.ram.write_u32(self.buf_addr, 0)

    def resume(self) -> None:
        """The core resumes: take the write index from the count word.

        A host drain zeroed that word, so the run appends from 0 again.
        """
        self._count = min(self.ram.read_u32(self.buf_addr), self.capacity)

    def land(self) -> None:
        """The core halts: write the pending records, then the count
        word, then the generation word bumped once per record.

        No cycles are charged: hardware paid for each record when its
        callback ran.  The generation word only moves when a record
        lands, so an unchanged word tells the host the buffer content
        is exactly what it last drained.
        """
        pending = self._pending
        if not pending:
            return
        n = len(pending)
        offset = COV_HEADER_BYTES + (self._count - n) * COV_RECORD_BYTES
        self.ram.write(self.buf_addr + offset, struct.pack(f"<{n}I", *pending))
        self.ram.write_u32(self.buf_addr, self._count)
        if self.gen_addr:
            self.generation = (self.generation + n) & 0xFFFFFFFF
            self.ram.write_u32(self.gen_addr, self.generation)
        pending.clear()

    def hit(self, site: int) -> int:
        """Record the edge into ``site``; returns cycles consumed."""
        self.total_hits += 1
        edge = edge_id(self.prev_site, site)
        self.prev_site = site
        if edge == self._last_edge:
            # Consecutive identical edges (tight loops) are collapsed on
            # target to keep the buffer useful, as real SanCov guards do.
            return TRACE_CYCLE_COST
        self._last_edge = edge
        if self._count >= self.capacity:
            self.trap_pending = True
            self.dropped_hits += 1
            return TRACE_CYCLE_COST
        self._pending.append(edge)
        self._count += 1
        if self._count >= self.capacity:
            self.trap_pending = True
        return TRACE_CYCLE_COST

    @property
    def record_count(self) -> int:
        """Number of records currently buffered (in RAM plus pending)."""
        return self._count
