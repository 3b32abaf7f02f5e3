"""Metrics registry: counters, gauges, fixed-bucket histograms.

Everything is plain Python with O(1) updates so instrumented hot paths
(per-DDI-command latency, coverage-drain bytes, restore latency) stay
cheap, and everything snapshots to JSON-friendly dicts for the run
artifact (``metrics.json``).
"""

from __future__ import annotations

import bisect
from typing import Dict, Optional, Sequence, Tuple

# Default latency buckets for debug-link commands, in virtual cycles.
# Probe latency per round-trip is ~1200 cycles (board catalog), so the
# buckets straddle one-command costs up to full reflash territory.
DDI_LATENCY_BUCKETS: Tuple[int, ...] = (
    500, 1_000, 2_000, 5_000, 10_000, 20_000, 50_000, 100_000)

#: Every literal metric name the stack may register.  Like
#: :data:`repro.obs.events.EVENT_REGISTRY` this closes the vocabulary:
#: run-artifact consumers (the Prometheus exporter, the HTML report)
#: select by name, so a new literal ``counter("...")`` / ``gauge`` /
#: ``histogram`` site declares its name here first and the determinism
#: linter (``EOF306``) rejects unknown literals.  Dynamically formatted
#: families (``ddi.cmd.<name>``, ``ddi.bytes.<name>``,
#: ``recovery.rung.<rung>``) are outside the literal check by design.
METRIC_REGISTRY = frozenset({
    # -- engine / fuzzing loop ---------------------------------------------
    "sites.clamped", "corpus.size", "crash.observed", "exec.cycles",
    # -- coverage / debug link ---------------------------------------------
    "coverage.drain.bytes", "coverage.drain.records", "cov.truncated",
    "link.drain.skipped", "link.transactions", "link.txn.cycles",
    "link.bytes", "uart.lines",
    # -- restore / recovery -------------------------------------------------
    "restore.latency", "recovery.latency",
    "restore.snapshot.latency", "restore.snapshot.pages",
    "restore.snapshot.fallbacks",
    # -- multi-board campaigns (repro.farm) ---------------------------------
    "farm.sync.epochs", "farm.merged.edges", "farm.shared.corpus",
    "farm.seeds.shared", "farm.seeds.imported",
    "farm.backend", "farm.sync.delta.bytes", "farm.workers.lost",
    # -- telemetry pipeline -------------------------------------------------
    "ts.samples", "flight.dumps", "profile.attribution",
    # -- campaign store (repro.db) ------------------------------------------
    "db.salvaged", "db.quarantined", "db.quarantined.bytes",
    "db.uncommitted", "db.journal.records", "db.journal.bytes",
})


class Counter:
    """Monotone event count."""

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """Last-written value (corpus size, queue depth, ...)."""

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Fixed-bucket histogram with count/sum/min/max.

    ``buckets`` are upper bounds; a final implicit +inf bucket catches
    overflows.  Recording is a bisect into a short tuple — cheap enough
    for per-command instrumentation.
    """

    def __init__(self, name: str,
                 buckets: Sequence[float] = DDI_LATENCY_BUCKETS):
        self.name = name
        self.buckets: Tuple[float, ...] = tuple(sorted(buckets))
        self.counts = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def record(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.buckets, value)] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Bucket-resolution percentile estimate (q in [0, 1]).

        The estimate is a bucket upper bound clamped into the observed
        ``[min, max]`` range, so it never reports a value outside the
        data: an empty histogram reads 0, a single sample reads itself,
        ``q <= 0`` reads the min and ``q >= 1`` the max.
        """
        if not self.count:
            return 0.0
        assert self.min is not None and self.max is not None
        if self.count == 1 or q >= 1.0:
            return float(self.max)
        if q <= 0.0:
            return float(self.min)
        target = q * self.count
        seen = 0
        estimate = float(self.max)
        for index, bucket_count in enumerate(self.counts):
            seen += bucket_count
            if seen >= target:
                if index < len(self.buckets):
                    estimate = float(self.buckets[index])
                break
        return min(max(estimate, float(self.min)), float(self.max))

    def snapshot(self) -> Dict[str, object]:
        return {"buckets": list(self.buckets), "counts": list(self.counts),
                "count": self.count, "sum": self.total,
                "min": self.min, "max": self.max, "mean": self.mean}

    def summary(self) -> str:
        """One-line human rendering for the run report."""
        if not self.count:
            return "n=0"
        return (f"n={self.count} mean={self.mean:.0f} "
                f"p50~{self.percentile(0.5):.0f} "
                f"p90~{self.percentile(0.9):.0f} max={self.max:.0f}")


class MetricsRegistry:
    """Get-or-create registry; same name always returns the same object."""

    def __init__(self):
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        counter = self.counters.get(name)
        if counter is None:
            counter = self.counters[name] = Counter(name)
        return counter

    def gauge(self, name: str) -> Gauge:
        gauge = self.gauges.get(name)
        if gauge is None:
            gauge = self.gauges[name] = Gauge(name)
        return gauge

    def histogram(self, name: str,
                  buckets: Sequence[float] = DDI_LATENCY_BUCKETS) -> Histogram:
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram(name, buckets)
        return histogram

    def snapshot(self) -> Dict[str, object]:
        """JSON-friendly dump of every metric."""
        return {
            "counters": {name: c.value
                         for name, c in sorted(self.counters.items())},
            "gauges": {name: g.value
                       for name, g in sorted(self.gauges.items())},
            "histograms": {name: h.snapshot()
                           for name, h in sorted(self.histograms.items())},
        }
