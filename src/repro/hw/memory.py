"""Byte-addressable memory regions: RAM, NOR flash, and an address space.

The fidelity that matters for the paper is:

* the host can read and write arbitrary byte ranges over the debug port
  (test-case injection, coverage drain, crash-context extraction);
* flash has *erase-before-program* semantics, so "reflash the image" is a
  real multi-step operation (sector erase + program) and a half-finished
  or corrupted flash genuinely fails checksum validation at boot;
* out-of-range accesses by target code raise a :class:`BusFault`, the
  substrate's hard-fault analog.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.errors import BusFault, FlashError

ERASED_BYTE = 0xFF


class MemoryRegion:
    """A contiguous, byte-addressable memory region.

    Addresses passed to :meth:`read` / :meth:`write` are *absolute* bus
    addresses; the region checks that the full access falls inside
    ``[base, base + size)``.
    """

    def __init__(self, name: str, base: int, size: int):
        if size <= 0:
            raise ValueError(f"region {name!r} must have positive size")
        if base < 0:
            raise ValueError(f"region {name!r} must have non-negative base")
        self.name = name
        self.base = base
        self.size = size
        #: One past the last valid address.
        self.end = base + size
        self._data = bytearray(size)

    def contains(self, address: int, length: int = 1) -> bool:
        """Return True if ``[address, address+length)`` is inside the region."""
        return length >= 0 and self.base <= address and address + length <= self.end

    def _check(self, address: int, length: int, kind: str) -> int:
        # Every target memory access lands here: compare against the
        # stored bounds inline (a zero-length access still needs its
        # address inside the region).
        if length < 0:
            raise BusFault(address, kind=f"negative-length {kind}")
        if address < self.base or address + (length or 1) > self.end:
            raise BusFault(address, kind=kind)
        return address - self.base

    def read(self, address: int, length: int) -> bytes:
        """Read ``length`` bytes starting at absolute ``address``."""
        offset = self._check(address, length, "read")
        return bytes(self._data[offset:offset + length])

    def write(self, address: int, data: bytes) -> None:
        """Write ``data`` at absolute ``address``."""
        offset = self._check(address, len(data), "write")
        self._data[offset:offset + len(data)] = data

    def read_u32(self, address: int) -> int:
        """Read a little-endian 32-bit word."""
        return int.from_bytes(self.read(address, 4), "little")

    def write_u32(self, address: int, value: int) -> None:
        """Write a little-endian 32-bit word."""
        self.write(address, (value & 0xFFFFFFFF).to_bytes(4, "little"))

    def fill(self, value: int) -> None:
        """Set every byte of the region to ``value``."""
        for i in range(self.size):
            self._data[i] = value & 0xFF

    def snapshot(self) -> bytes:
        """Return a copy of the full region contents."""
        return bytes(self._data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<{type(self).__name__} {self.name} "
                f"0x{self.base:08x}..0x{self.end:08x}>")


class Ram(MemoryRegion):
    """Volatile RAM: contents are lost on power cycle."""

    def power_cycle(self) -> None:
        """Clear contents, as a reset/power cycle would."""
        self._data = bytearray(self.size)


class Flash(MemoryRegion):
    """NOR-style flash with erase-before-program semantics.

    * An *erase* sets a whole sector to ``0xFF``.
    * A *program* may only flip bits from 1 to 0; programming a byte that
      is not erased (and whose new value sets any bit) raises
      :class:`FlashError`, like a real flash controller reporting a
      verify failure.
    * Contents survive power cycles.
    """

    def __init__(self, name: str, base: int, size: int, sector_size: int = 4096):
        super().__init__(name, base, size)
        if sector_size <= 0 or size % sector_size != 0:
            raise ValueError("flash size must be a multiple of sector_size")
        self.sector_size = sector_size
        self._data = bytearray([ERASED_BYTE]) * size

    @property
    def sector_count(self) -> int:
        """Number of erase sectors."""
        return self.size // self.sector_size

    def sector_of(self, address: int) -> int:
        """Return the sector index containing absolute ``address``."""
        self._check(address, 1, "sector lookup")
        return (address - self.base) // self.sector_size

    def erase_sector(self, sector: int) -> None:
        """Erase one sector (set every byte to 0xFF)."""
        if not 0 <= sector < self.sector_count:
            raise FlashError(f"no such sector: {sector}")
        start = sector * self.sector_size
        self._data[start:start + self.sector_size] = (
            bytes([ERASED_BYTE]) * self.sector_size)

    def erase_range(self, address: int, length: int) -> None:
        """Erase every sector overlapping ``[address, address+length)``."""
        if length <= 0:
            return
        first = self.sector_of(address)
        last = self.sector_of(address + length - 1)
        for sector in range(first, last + 1):
            self.erase_sector(sector)

    def program(self, address: int, data: bytes) -> None:
        """Program ``data`` at ``address``; target bytes must be erased
        (or the write must only clear bits).
        """
        offset = self._check(address, len(data), "program")
        for i, new in enumerate(data):
            old = self._data[offset + i]
            if new & ~old:
                raise FlashError(
                    f"program without erase at 0x{address + i:08x} "
                    f"(old=0x{old:02x} new=0x{new:02x})")
            self._data[offset + i] = old & new

    def write(self, address: int, data: bytes) -> None:
        """Raw write bypassing erase rules.

        Used to model in-system corruption (a buggy kernel scribbling on
        its own image) and by the debug probe's raw memory access.  Host
        flash tools should use :meth:`erase_range` + :meth:`program`.
        """
        super().write(address, data)

    def is_erased(self, address: int, length: int) -> bool:
        """Return True if the whole range currently reads as 0xFF."""
        return all(b == ERASED_BYTE for b in self.read(address, length))


class AddressSpace:
    """Dispatches absolute addresses to the region that contains them."""

    def __init__(self, regions: Optional[Iterable[MemoryRegion]] = None):
        self._regions: List[MemoryRegion] = []
        for region in regions or []:
            self.add_region(region)

    @property
    def regions(self) -> List[MemoryRegion]:
        """Mapped regions, in mapping order."""
        return list(self._regions)

    def add_region(self, region: MemoryRegion) -> None:
        """Map a region; overlapping mappings are rejected."""
        for existing in self._regions:
            if region.base < existing.end and existing.base < region.end:
                raise ValueError(
                    f"region {region.name!r} overlaps {existing.name!r}")
        self._regions.append(region)

    def region_for(self, address: int, length: int = 1) -> MemoryRegion:
        """Return the region containing the access, or raise BusFault."""
        for region in self._regions:
            if region.contains(address, length):
                return region
        raise BusFault(address)

    def read(self, address: int, length: int) -> bytes:
        """Read bytes; the whole range must fall within one region."""
        if length == 0:
            return b""
        return self.region_for(address, length).read(address, length)

    def write(self, address: int, data: bytes) -> None:
        """Write bytes; the whole range must fall within one region."""
        if not data:
            return
        self.region_for(address, len(data)).write(address, data)

    def read_u32(self, address: int) -> int:
        """Read a little-endian 32-bit word."""
        return self.region_for(address, 4).read_u32(address)

    def write_u32(self, address: int, value: int) -> None:
        """Write a little-endian 32-bit word."""
        self.region_for(address, 4).write_u32(address, value)
