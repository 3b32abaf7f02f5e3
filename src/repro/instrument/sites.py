"""Coverage-site allocation.

The firmware builder walks every instrumentable function and assigns it a
contiguous block of site IDs: site 0 of the block fires on function entry,
the remaining sub-sites fire at branch points inside the function body.
The resulting :class:`SiteTable` is part of the build artifacts, so the
host can attribute edges back to symbols and filter instrumentation by
module (Table 4 confines instrumentation to the HTTP and JSON modules).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional


class ClampCounter:
    """Process-wide tally of out-of-range sub-site clamps.

    A clamp aliases two distinct branches onto one site id, so silent
    clamping quietly corrupts coverage attribution.  The tally feeds the
    ``sites.clamped`` metric and the static analyzer's ``EOF203``
    diagnostic, making every occurrence visible.
    """

    def __init__(self) -> None:
        self.count = 0
        self.by_symbol: Dict[str, int] = {}

    def record(self, symbol: str) -> None:
        self.count += 1
        self.by_symbol[symbol] = self.by_symbol.get(symbol, 0) + 1

    def reset(self) -> None:
        self.count = 0
        self.by_symbol.clear()


#: Shared tally; :meth:`SiteInfo.site` records into it on every clamp.
CLAMPS = ClampCounter()


@dataclass(frozen=True)
class SiteInfo:
    """One instrumented function's block of coverage sites."""

    symbol: str
    module: str
    base: int          # first site id of the block
    count: int         # block length (entry site + sub-sites)

    def site(self, sub: int) -> int:
        """Absolute site id of sub-site ``sub`` (0 = function entry)."""
        if not 0 <= sub < self.count:
            # Clamp rather than fault: an out-of-range sub-site is a
            # build-model mismatch, not a target bug — but never a
            # silent one: the clamp is tallied for the ``sites.clamped``
            # metric and surfaces as an EOF203 diagnostic.
            CLAMPS.record(self.symbol)
            sub = sub % self.count
        return self.base + sub


class SiteTable:
    """All coverage sites of one firmware image."""

    def __init__(self) -> None:
        self._by_symbol: Dict[str, SiteInfo] = {}
        self._total = 0

    @property
    def total_sites(self) -> int:
        """Number of allocated site ids."""
        return self._total

    def add(self, info: SiteInfo) -> None:
        """Register a function's site block."""
        if info.symbol in self._by_symbol:
            raise ValueError(f"duplicate site block for {info.symbol!r}")
        self._by_symbol[info.symbol] = info
        self._total = max(self._total, info.base + info.count)

    def for_symbol(self, symbol: str) -> Optional[SiteInfo]:
        """Site block of ``symbol``, or None if not instrumented."""
        return self._by_symbol.get(symbol)

    def symbol_of_site(self, site: int) -> Optional[str]:
        """Reverse lookup: which function owns ``site``?"""
        for info in self._by_symbol.values():
            if info.base <= site < info.base + info.count:
                return info.symbol
        return None

    def modules(self) -> List[str]:
        """Sorted list of modules that have instrumented functions."""
        return sorted({info.module for info in self._by_symbol.values()})

    def blocks(self) -> Iterator[SiteInfo]:
        """Iterate site blocks in allocation order."""
        return iter(sorted(self._by_symbol.values(), key=lambda i: i.base))

    def __len__(self) -> int:
        return len(self._by_symbol)


class SiteAllocator:
    """Hands out consecutive site-id blocks during a build."""

    def __init__(self) -> None:
        self.table = SiteTable()
        self._next = 1  # site 0 is reserved as the "no previous site" sentinel

    def allocate(self, symbol: str, module: str, count: int) -> SiteInfo:
        """Allocate ``count`` sites for ``symbol`` and record them."""
        if count < 1:
            raise ValueError("every function needs at least its entry site")
        info = SiteInfo(symbol=symbol, module=module, base=self._next,
                        count=count)
        self._next += count
        self.table.add(info)
        return info
