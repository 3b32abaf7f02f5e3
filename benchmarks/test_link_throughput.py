"""Link-throughput bench: the engine's link cost on the 5-OS matrix.

The engine batches program injection with the first continue and
drains coverage in one delta exchange.  Each OS is gated at <= 60% of
the link transactions per attempted program that the historical
one-command-per-round-trip path needed at the same seeds and budget.
That path no longer exists, so its figures are frozen below.  Writes
``bench_results/link_throughput.txt``.
"""

from __future__ import annotations

import pytest

from repro.bench.report import render_table
from repro.bench.runner import run_seeds
from repro.fuzz.targets import get_target

from common import FULL_SYSTEM_OSES, save_result

SEEDS = 2
BUDGET = 400_000

#: Transactions per attempted program of the one-command-per-round-trip
#: engine path (SEEDS seeds x BUDGET cycles), measured before it was
#: deleted.
UNBATCHED_TXNS_PER_PROGRAM = {
    "pokos": 9.10,
    "freertos": 10.16,
    "rt-thread": 10.29,
    "zephyr": 10.39,
    "nuttx": 11.28,
}


def _per_program(summary):
    return summary.mean_transactions_per_program


@pytest.fixture(scope="module")
def link_rows():
    return {os_name: run_seeds("eof", get_target(os_name), seeds=SEEDS,
                               budget_cycles=BUDGET)
            for os_name in FULL_SYSTEM_OSES}


class TestLinkThroughput:
    def test_batching_cuts_transactions_at_least_40pct(self, link_rows):
        for os_name, summary in link_rows.items():
            before = UNBATCHED_TXNS_PER_PROGRAM[os_name]
            assert _per_program(summary) <= 0.6 * before, (
                f"{os_name}: {before:.2f} -> "
                f"{_per_program(summary):.2f} transactions/program")


def test_link_throughput_render(link_rows):
    rows = []
    for os_name, summary in link_rows.items():
        before = UNBATCHED_TXNS_PER_PROGRAM[os_name]
        after = _per_program(summary)
        rows.append([
            os_name,
            f"{summary.mean_link_transactions:.0f}",
            f"{before:.2f}",
            f"{after:.2f}",
            f"{(1 - after / before):.1%}",
            f"{summary.mean_link_bytes / 1024:.0f}",
        ])
    text = render_table(
        f"Debug-link cost per seed ({SEEDS} seeds x {BUDGET} cycles; "
        f"'before' = frozen one-command-per-round-trip figures)",
        ["target", "txns", "txns/prog before", "txns/prog after", "cut",
         "KiB"],
        rows)
    print()
    print(text)
    save_result("link_throughput", text)
