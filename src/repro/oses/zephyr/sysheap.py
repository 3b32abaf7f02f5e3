"""Zephyr's ``sys_heap``: chunk-based allocator with size-class buckets.

A third allocator design, distinct from FreeRTOS heap_4 (address-ordered
free list) and RT-Thread small-mem (boundary-tag chain): free chunks are
threaded onto power-of-two *bucket* lists, allocation pops the smallest
bucket that fits and splits the remainder back into a bucket.

Chunk header (8 bytes)::

    u32 size_and_flag   chunk size in bytes incl. header; MSB = used
    u32 bucket_next     offset of next free chunk in the same bucket

A one-word canary (0xC0FFEE00 | bucket) sits at the end of every *free*
chunk; ``validate`` checks it, which is how stress-induced corruption
(injected bug #1) turns into a detectable panic condition.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.hw.memory import Ram

HEADER = 8
USED_BIT = 0x8000_0000
SIZE_MASK = 0x7FFF_FFFF
N_BUCKETS = 8
MIN_CHUNK = 16
CANARY_BASE = 0xC0FFEE00


def bucket_of(size: int) -> int:
    """Size class of a chunk: floor(log2(size/MIN_CHUNK)), clamped."""
    bucket = 0
    span = MIN_CHUNK
    while span * 2 <= size and bucket < N_BUCKETS - 1:
        span *= 2
        bucket += 1
    return bucket


class SysHeap:
    """A sys_heap over ``ram[base, base+size)``.

    Bucket heads live in Python (they would be in the heap's static
    struct); chunk headers and canaries live in simulated RAM.
    """

    def __init__(self, ram: Ram, base: int, size: int):
        if size < MIN_CHUNK * 4:
            raise ValueError("sys_heap window too small")
        self.ram = ram
        self.base = base
        self.size = size & ~7
        self.buckets: List[int] = [0] * N_BUCKETS  # 0 = empty
        self.allocated = 0
        self.alloc_count = 0
        self.free_count = 0
        first = 8  # offset 0 reserved as the null sentinel
        span = self.size - first
        self._write_chunk(first, span, used=False, nxt=0)
        self._bucket_push(first, span)

    # -- raw chunk access -------------------------------------------------------

    def _write_chunk(self, off: int, size: int, used: bool, nxt: int) -> None:
        word = (size & SIZE_MASK) | (USED_BIT if used else 0)
        self.ram.write_u32(self.base + off, word)
        self.ram.write_u32(self.base + off + 4, nxt)
        if not used and size >= MIN_CHUNK:
            bucket = bucket_of(size)
            self.ram.write_u32(self.base + off + size - 4,
                               CANARY_BASE | bucket)

    def _read_chunk(self, off: int) -> Tuple[int, bool, int]:
        word = self.ram.read_u32(self.base + off)
        nxt = self.ram.read_u32(self.base + off + 4)
        return word & SIZE_MASK, bool(word & USED_BIT), nxt

    def _canary_ok(self, off: int, size: int) -> bool:
        if size < MIN_CHUNK:
            return True
        value = self.ram.read_u32(self.base + off + size - 4)
        return (value & 0xFFFFFF00) == CANARY_BASE

    # -- buckets --------------------------------------------------------------------

    def _bucket_push(self, off: int, size: int) -> None:
        bucket = bucket_of(size)
        _, used, _ = self._read_chunk(off)
        self._write_chunk(off, size, used=False, nxt=self.buckets[bucket])
        self.buckets[bucket] = off

    # -- public API --------------------------------------------------------------------

    def alloc(self, want: int) -> int:
        """Allocate; returns an absolute payload address or 0."""
        if want <= 0:
            return 0
        need = max((want + HEADER + 7) & ~7, MIN_CHUNK)
        for bucket in range(bucket_of(need), N_BUCKETS):
            off = self.buckets[bucket]
            prev = 0
            while off:
                size, used, nxt = self._read_chunk(off)
                if used or size == 0:
                    break  # corrupted bucket chain
                if size >= need:
                    # Unlink from the bucket.
                    if prev:
                        p_size, p_used, _ = self._read_chunk(prev)
                        self._write_chunk(prev, p_size, p_used, nxt)
                    else:
                        self.buckets[bucket] = nxt
                    remainder = size - need
                    if remainder >= MIN_CHUNK:
                        self._bucket_push(off + need, remainder)
                        size = need
                    self._write_chunk(off, size, used=True, nxt=0)
                    self.allocated += size
                    self.alloc_count += 1
                    return self.base + off + HEADER
                prev = off
                off = nxt
        return 0

    def free(self, payload_addr: int) -> bool:
        """Release an allocation; False on a bad pointer."""
        off = payload_addr - self.base - HEADER
        if off < 8 or off >= self.size:
            return False
        size, used, _ = self._read_chunk(off)
        if not used or size < MIN_CHUNK or off + size > self.size:
            return False
        self.allocated -= size
        self.free_count += 1
        self._bucket_push(off, size)
        return True

    def validate(self) -> Optional[str]:
        """Walk every bucket; returns a defect description or None."""
        for bucket, head in enumerate(self.buckets):
            off = head
            hops = 0
            while off:
                if off < 8 or off >= self.size:
                    return f"bucket {bucket}: chunk offset {off} out of range"
                size, used, nxt = self._read_chunk(off)
                if used:
                    return f"bucket {bucket}: used chunk on free list"
                if size < MIN_CHUNK or off + size > self.size:
                    return f"bucket {bucket}: bad chunk size {size}"
                if not self._canary_ok(off, size):
                    return f"bucket {bucket}: canary smashed at {off}"
                off = nxt
                hops += 1
                if hops > 100_000:
                    return f"bucket {bucket}: cyclic free list"
        return None

    def corrupt_for_stress(self, victim_bucket: int) -> None:
        """Deliberately smash the canary of a free chunk (bug #1 hook)."""
        off = self.buckets[victim_bucket % N_BUCKETS]
        if off:
            size, _, _ = self._read_chunk(off)
            if size >= MIN_CHUNK:
                self.ram.write_u32(self.base + off + size - 4, 0xBADBADBA)
