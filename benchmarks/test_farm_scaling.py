"""Farm scaling: process-backend epoch loop + O(delta) sync cost.

Two gates for the campaign backends:

* **Epoch-loop scaling** — the inline backend runs the boards one
  after another on the coordinator thread, so there is no GIL
  contention for the process backend to beat: on a multi-core host its
  4 child workers must run the epoch loop of the same deterministic
  workload faster than 4 inline boards by truly running in parallel.
  Each campaign is timed in two phases: start-up (until the last
  worker's ``join_start`` returns) and the epoch loop after it.  Only
  the loop is gated, and only with at least 2 usable cores; start-up
  and total wall-clock are recorded but not gated, because spawning and
  booting the children still costs more than the loop wins at this
  budget (cutting that is a fork-server job, not a transport one).
* **Sync cost is O(delta)** — pushing a fixed-size epoch delta into the
  shared corpus must not get more expensive as the *resident* corpus
  grows: dedup is one hash probe per seed.  The frame that carries
  such a delta (what the process backend ships) stays small.

Results land in ``bench_results/farm_scaling.txt``.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.agent.protocol import ArgImm, Call, TestProgram
from repro.bench.runner import make_campaign
from repro.farm import CampaignState
from repro.farm.wire import encode_epoch_result, frame_size
from repro.fuzz.corpus import CorpusEntry, program_hash
from repro.fuzz.targets import get_target

from common import save_result

TARGET_OS = "freertos"
WORKERS = 4
TOTAL_BUDGET = 6_400_000
SYNC = 100_000

CORPUS_SIZES = (64, 512, 4096)
DELTA_SEEDS = 16
PUSH_REPS = 40


def _entry(value: int) -> CorpusEntry:
    program = TestProgram(calls=[Call(1, (ArgImm(value),))])
    return CorpusEntry(program=program, new_edges=2,
                       digest=program_hash(program),
                       edge_footprint=frozenset({value, value + 1}))


def usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@pytest.fixture(scope="module")
def wall_clock():
    """Per backend: start-up, loop and total seconds, and the result.

    Start-up runs from building the campaign until the last worker's
    ``join_start`` returns; the epoch loop is everything after it."""
    timings = {}
    results = {}
    for backend in ("inline", "process"):
        started = []
        begin = time.perf_counter()
        orchestrator = make_campaign(
            get_target(TARGET_OS), WORKERS, TOTAL_BUDGET,
            campaign_seed=1, sync_interval=SYNC, backend=backend)
        for handle in orchestrator.handles:
            def join_start(join=handle.join_start):
                join()
                started.append(time.perf_counter())
            handle.join_start = join_start
        results[backend] = orchestrator.run()
        end = time.perf_counter()
        timings[backend] = {"startup": max(started) - begin,
                            "loop": end - max(started),
                            "total": end - begin}
    return timings, results


@pytest.fixture(scope="module")
def sync_costs():
    """Mean seconds to push a fixed delta, per resident-corpus size."""
    costs = {}
    for resident in CORPUS_SIZES:
        state = CampaignState(max_corpus=1 << 30)
        state.warm_start([_entry(10_000 + i) for i in range(resident)])
        elapsed = 0.0
        for rep in range(PUSH_REPS):
            base = 1_000_000 + rep * DELTA_SEEDS
            delta = [_entry(base + i) for i in range(DELTA_SEEDS)]
            start = time.perf_counter()
            state.push(worker=0, epoch=rep + 1, entries=delta)
            elapsed += time.perf_counter() - start
        costs[resident] = elapsed / PUSH_REPS
    return costs


def test_backends_agree_before_timing_them(wall_clock):
    """Speed claims only count between observationally equal runs."""
    _, results = wall_clock
    inline, process = results["inline"], results["process"]
    assert process.merged_edges == inline.merged_edges
    assert process.corpus_digests == inline.corpus_digests
    assert process.crash_signatures() == inline.crash_signatures()


def test_process_epoch_loop_beats_inline_on_multicore(wall_clock):
    timings, _ = wall_clock
    cores = usable_cores()
    if cores < 2:
        pytest.skip("single usable core: subprocess workers cannot "
                    "run in parallel here; timing recorded only")
    process, inline = timings["process"]["loop"], timings["inline"]["loop"]
    assert process < inline, (
        f"the epoch loop of 4 subprocess workers took {process:.2f}s vs "
        f"{inline:.2f}s inline with {cores} usable cores")


def test_sync_cost_tracks_delta_not_corpus(sync_costs):
    """Pushing 16 seeds into a 4096-seed corpus must cost about what
    pushing them into a 64-seed corpus costs (generous 4x bound: the
    gate is O(delta) vs O(corpus), not micro-benchmark precision —
    a linear scan would show up as ~64x here)."""
    small = sync_costs[min(CORPUS_SIZES)]
    large = sync_costs[max(CORPUS_SIZES)]
    assert large <= small * 4 + 1e-4, (
        f"push cost grew from {small * 1e6:.0f}us to "
        f"{large * 1e6:.0f}us as the resident corpus grew "
        f"{max(CORPUS_SIZES) // min(CORPUS_SIZES)}x")


def test_delta_frame_stays_under_64k():
    delta = [_entry(2_000_000 + i) for i in range(DELTA_SEEDS)]
    summary = {"edges": 0, "execs": 0, "crashes": 0, "restores": 0,
               "snapshot_restores": 0, "snapshot_fallbacks": 0}
    payload = encode_epoch_result("live", delta, set(), [], summary, 0)
    size = frame_size("epoch_result", payload)
    assert 0 < size < 64 * 1024


def test_farm_scaling_render(wall_clock, sync_costs):
    timings, results = wall_clock
    cores = usable_cores()
    lines = [
        f"Farm scaling: {WORKERS} workers on {TARGET_OS}, total "
        f"budget {TOTAL_BUDGET} cycles, sync every {SYNC} cycles, "
        f"usable cores: {cores}",
        "-" * 66,
        "Backend   Start-up     Loop    Total  Merged edges  Execs",
        "-" * 66,
    ]
    for backend in ("inline", "process"):
        result, timing = results[backend], timings[backend]
        lines.append(f"{backend:<9} {timing['startup']:>7.2f}s "
                     f"{timing['loop']:>7.2f}s {timing['total']:>7.2f}s "
                     f"{result.merged_edges:>13}  "
                     f"{result.stats.total_programs():>5}")
    lines.append("-" * 66)
    lines.append("Gated: the epoch loop only (process < inline, with >= 2 "
                 "usable cores).")
    lines.append("Total wall-clock is recorded but not gated: child "
                 "start-up still")
    lines.append("outweighs the loop's win at this budget; cutting it is "
                 "the fork-server item's job.")
    if cores < 2:
        lines.append("(single usable core: the loop gate was skipped; the "
                     "process backend")
        lines.append(" pays spawn+boot overhead with no parallelism to "
                     "win)")
    lines.append("")
    lines.append(f"Sync cost of a fixed {DELTA_SEEDS}-seed delta vs "
                 f"resident corpus size")
    lines.append("-" * 66)
    lines.append("Resident corpus   Mean push cost")
    lines.append("-" * 66)
    for resident in CORPUS_SIZES:
        cost_us = sync_costs[resident] * 1e6
        lines.append(f"{resident:>15}   {cost_us:>12.1f}us")
    lines.append("-" * 66)
    save_result("farm_scaling", "\n".join(lines))
