"""Out-of-band memory-health probing (a §6 "future work" extension).

The paper's threats-to-validity section notes EOF only sees *explicit*
failures — silent memory corruption sails past the log and exception
monitors — and suggests richer detectors.  This module implements the
debug-port-native version: since the host can read arbitrary RAM while
the target is halted, it can walk the allocator's on-RAM metadata between
test cases and flag structural damage (smashed guard words, broken block
chains, bitmap underflow) *without any target-side sanitizer runtime*.

The walkers are read-only reimplementations of each allocator's layout —
the host-side knowledge is the same build metadata EOF already extracts.
Zephyr's sys_heap keeps its bucket heads in registers/static state rather
than the probed window, so only its in-window chunk headers are checked.
"""

from __future__ import annotations

import struct
from typing import Callable, Dict, Optional

from repro.ddi.session import DebugSession
from repro.errors import DebugLinkTimeout

SMEM_MAGIC = 0x1EA0
SMEM_HEADER = 12
SMEM_NAME_FIELD = 16
SMEM_CONTROL = 24
SMEM_GUARD = 0x5AFE5AFE

HEAP4_HEADER = 8
HEAP4_ALLOC_BIT = 0x8000_0000
HEAP4_SIZE_MASK = 0x7FFF_FFFF

GRAN_GRANULE = 32


def check_smem(raw: bytes) -> Optional[str]:
    """Validate an rt_smem window snapshot (RT-Thread)."""
    if len(raw) < SMEM_CONTROL + 2 * SMEM_HEADER:
        return "window too small to hold a heap"
    guard = struct.unpack_from("<I", raw, SMEM_NAME_FIELD)[0]
    if guard != SMEM_GUARD:
        return (f"control-block guard word smashed "
                f"(0x{guard:08x} != 0x{SMEM_GUARD:08x})")
    size = len(raw) & ~7
    end = size - SMEM_HEADER
    offset = SMEM_CONTROL
    hops = 0
    while offset < end:
        magic, _used, nxt, _prev = struct.unpack_from("<HHII", raw, offset)
        if magic != SMEM_MAGIC:
            return f"bad block magic 0x{magic:04x} at offset {offset}"
        if nxt <= offset or nxt > end:
            return f"block chain broken at offset {offset} (next={nxt})"
        offset = nxt
        hops += 1
        if hops > 100_000:
            return "cyclic block chain"
    return None


def check_heap4(raw: bytes) -> Optional[str]:
    """Validate a heap_4 window snapshot (FreeRTOS): the free list must
    be address-ordered, in-window and unallocated."""
    size = len(raw) & ~7
    offset = struct.unpack_from("<I", raw, 0)[0]  # head's next_free
    previous_end = 0
    hops = 0
    while offset:
        if offset < 8 or offset + HEAP4_HEADER > size:
            return f"free block offset {offset} outside the window"
        nxt, block = struct.unpack_from("<II", raw, offset)
        if block & HEAP4_ALLOC_BIT:
            return f"allocated block on the free list at offset {offset}"
        length = block & HEAP4_SIZE_MASK
        if offset < previous_end:
            return f"free list not address-ordered at offset {offset}"
        if offset + length > size:
            return f"free block at {offset} overruns the window"
        previous_end = offset + length
        offset = nxt
        hops += 1
        if hops > 100_000:
            return "cyclic free list"
    return None


def check_gran(raw: bytes) -> Optional[str]:
    """Validate a gran window snapshot (NuttX): the bitmap's own
    granules must still be marked used."""
    total_gran = len(raw) // GRAN_GRANULE
    bitmap_bytes = (total_gran + 7) // 8
    reserve = (bitmap_bytes + GRAN_GRANULE - 1) // GRAN_GRANULE
    for gran in range(reserve):
        byte = raw[gran // 8]
        if not byte & (1 << (gran % 8)):
            return f"bitmap granule {gran} was freed"
    return None


CHECKERS: Dict[str, Callable[[bytes], Optional[str]]] = {
    "rt-thread": check_smem,
    "freertos": check_heap4,
    "nuttx": check_gran,
}


class HeapHealthProbe:
    """Periodic allocator-metadata validation over the debug link."""

    def __init__(self, session: DebugSession, every_n_programs: int = 16):
        self.session = session
        self.every = max(every_n_programs, 1)
        self.checker = CHECKERS.get(session.build.config.os_name)
        self.probes = 0
        self.defects_found = 0
        self._countdown = self.every

    @property
    def supported(self) -> bool:
        """Does this OS keep probeable allocator metadata in the window?"""
        return self.checker is not None

    def maybe_probe(self) -> Optional[str]:
        """Called once per executed program; probes every N-th time.

        Returns a defect description when the allocator metadata is
        structurally damaged — a *silent* corruption the crash monitors
        would have missed.
        """
        if self.checker is None:
            return None
        self._countdown -= 1
        if self._countdown > 0:
            return None
        self._countdown = self.every
        return self.probe()

    def probe(self) -> Optional[str]:
        """Probe now, unconditionally."""
        if self.checker is None:
            return None
        layout = self.session.build.ram_layout
        try:
            raw = self.session.link.read_memory(layout.kernel_heap_base,
                                                layout.kernel_heap_size)
        except DebugLinkTimeout:
            return None
        self.probes += 1
        defect = self.checker(raw)
        if defect is not None:
            self.defects_found += 1
        return defect
