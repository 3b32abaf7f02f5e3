"""The four workloads and how one run measures them.

A run of a workload is a fixed list of *units*.  A unit is one fuzzing
engine (or one campaign) built from scratch, run for a fixed budget of
virtual cycles, and torn down.  Which units a run holds depends only on
``--seed`` and ``--seconds``: round ``k`` of a run fuzzes with seed
``seed * 1000 + k``, and the number of rounds is ``--seconds`` divided
by the workload's reference round time.  Two runs with the same
arguments therefore do the same virtual work, whatever the host, and
every virtual result (edges, crashes, corpus) must repeat exactly.

Host time is read with ``time.perf_counter`` around calls into the
program's public API and rescaled to reference seconds by a
:class:`~hostclock.HostClock`; nothing inside the program is changed.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import tempfile
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Sequence, Tuple

from repro.analysis import reach
from repro.bench.runner import make_campaign, make_engine
from repro.errors import RecoveryExhausted
from repro.firmware.builder import build_firmware
from repro.fuzz.targets import get_target
from repro.obs import FlightRecorder, JsonlSink, Observability, \
    TimeSeriesSampler

from hostclock import HostClock

#: Virtual cycles per ``run_until`` slice on single-board workloads.
#: A freertos program costs about 9k cycles and a pokos one about 2k,
#: so every slice holds one to ten programs, and a run pools well over
#: a thousand slices (the count is printed with the result).
SLICE_CYCLES = 10_000

#: Seeds of round k are ``seed * SEED_STRIDE + k``.
SEED_STRIDE = 1000

#: Rounds whose set-up starts cold, as in a fresh process (the check
#: round does too); their set-up times are the ``setup_s`` samples.
#: Later rounds reuse the in-process reachability memo, which leaves
#: more of the run for the fuzzing loop.
COLD_ROUNDS = 3

FIVE_OSES = ("freertos", "rt-thread", "zephyr", "nuttx", "pokos")


@dataclass(frozen=True)
class Workload:
    """One named workload; see README.md for why each exists."""

    name: str
    why: str
    targets: Tuple[str, ...]
    budget_cycles: int
    #: Reference seconds (see hostclock.py) one round takes, set-up
    #: included; fixes the round count for a given ``--seconds``.
    round_seconds: float
    restore_every: int = 0
    telemetry: bool = False
    workers: int = 0            # > 0: a campaign on the process backend
    sync_interval: int = 0

    @property
    def campaign(self) -> bool:
        return self.workers > 0

    def rounds(self, seconds: float) -> int:
        return max(1, int(round(seconds / self.round_seconds)))


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="steady-5os",
        why="plain EOF on all five OSes, restoring only on crashes: the "
            "paper's Table 3 loop (generation, memory, sancov, drain)",
        targets=FIVE_OSES, budget_cycles=500_000, round_seconds=1.25),
    Workload(
        name="restore-heavy",
        why="snapshot restore after every program on freertos and nuttx: "
            "the write-heavy use of link, hw RAM and runtime-image copy",
        targets=("freertos", "nuttx"), budget_cycles=1_000_000,
        round_seconds=1.25, restore_every=1),
    Workload(
        name="campaign-2w",
        why="2-worker freertos campaign on the process backend with a "
            "store: the only workload that runs repro.farm and repro.db",
        targets=("freertos",), budget_cycles=8_000_000,
        round_seconds=2.5, workers=2, sync_interval=40_000),
    Workload(
        name="telemetry",
        why="the freertos leg of steady-5os with JSONL events, time "
            "series and flight recorder on: the only run of repro.obs",
        targets=("freertos",), budget_cycles=500_000,
        round_seconds=0.25, telemetry=True),
)}


def sub_seed(seed: int, round_index: int) -> int:
    return seed * SEED_STRIDE + round_index


def digest(value) -> str:
    blob = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass
class UnitRun:
    """One engine or campaign, built, run and torn down."""

    label: str
    setup_s: float              # reference seconds
    loop_s: float               # reference seconds
    raw_loop_s: float           # wall-clock seconds
    programs: int
    attempted: int
    failed: int
    edges: int
    unique_crashes: int
    block: Dict[str, object]
    slices_s: List[float] = field(default_factory=list)
    error: str = ""
    snapshot_restores: int = 0
    snapshot_pages: int = 0
    epochs: int = 0
    lost_workers: int = 0


def _telemetry_bundle(directory: str, run_id: str,
                      budget_cycles: int) -> Observability:
    """The full bundle ``eof-fuzz run --trace-dir`` attaches."""
    obs = Observability(run_id=run_id)
    obs.attach(JsonlSink(os.path.join(directory, "events.jsonl")))
    obs.sampler = TimeSeriesSampler(
        max(budget_cycles // 50, 1),
        path=os.path.join(directory, "timeseries.jsonl"))
    obs.attach_flight(FlightRecorder(directory))
    return obs


def run_board_unit(workload: Workload, target: str, seed: int,
                   sliced: bool, cold: bool, scratch: str,
                   clock: HostClock) -> UnitRun:
    """Set up one engine, fuzz its budget, return times and results.

    ``sliced`` drives the loop as ``run_until(now + SLICE_CYCLES)``
    steps and times each; otherwise one ``run_until(budget)`` call.
    Both must give the same virtual result (the slice check).
    """
    label = f"{target}/seed{seed}"
    if cold:
        # A fresh process pays reachability analysis once per build
        # shape: drop the in-process memo.
        reach._UNIVERSE_CACHE.clear()
    obs = obs_dir = None
    scale = clock.calibrate()
    start = perf_counter()
    if workload.telemetry:
        obs_dir = tempfile.mkdtemp(prefix="obs-", dir=scratch)
        obs = _telemetry_bundle(obs_dir, f"bench-{label}",
                                workload.budget_cycles)
    build = build_firmware(get_target(target).build_config())
    engine = make_engine("eof", build, seed, workload.budget_cycles,
                         obs=obs, restore_every=workload.restore_every)
    engine.start()
    setup_s = (perf_counter() - start) * (scale + clock.calibrate()) / 2

    gc.collect()
    slices: List[float] = []
    quarantined = 0
    error = ""
    machine = engine.session.board.machine
    raw_loop_s = 0.0
    scale = clock.calibrate()
    loop_start = perf_counter()
    try:
        if sliced:
            more = True
            while more:
                began = perf_counter()
                more = engine.run_until(machine.cycles + SLICE_CYCLES)
                elapsed = perf_counter() - began
                raw_loop_s += elapsed
                slices.append(elapsed * clock.scale)
                clock.tick()
        else:
            engine.run_until(workload.budget_cycles)
    except RecoveryExhausted:
        quarantined = 1
    except Exception as exc:
        # A host-side bug in the program under test (seen: a pokos
        # scheduler dividing by zero).  It repeats at the same seed, so
        # the unit counts as one failed operation and the run goes on.
        error = f"{type(exc).__name__}: {exc}"
    if not sliced:
        raw_loop_s = perf_counter() - loop_start
    loop_s = sum(slices) if sliced else \
        raw_loop_s * (scale + clock.calibrate()) / 2
    result = engine.finish()
    if obs is not None:
        obs.close()
        shutil.rmtree(obs_dir)

    stats = result.stats
    crashes = sorted(report.signature()
                     for report in result.crash_db.unique_crashes())
    block = {
        "unit": label,
        "programs": stats.programs_executed,
        "edges": result.edges,
        "edge_set": digest(sorted(result.coverage.edges)),
        "crashes": crashes,
        "corpus": digest(engine.corpus.digests()),
        "link_transactions": stats.link_transactions,
        "semantic": digest(stats.semantic_dict()),
        "error": error,
    }
    return UnitRun(
        label=label, setup_s=setup_s, loop_s=loop_s, raw_loop_s=raw_loop_s,
        programs=stats.programs_executed,
        attempted=stats.programs_executed + stats.rejected_programs,
        failed=stats.rejected_programs + stats.link_timeouts + quarantined
        + bool(error),
        edges=result.edges, unique_crashes=len(crashes), block=block,
        slices_s=slices, error=error, snapshot_restores=stats.snapshot_restores,
        snapshot_pages=stats.snapshot_pages_written)


def run_campaign_unit(workload: Workload, seed: int, scratch: str,
                      clock: HostClock) -> UnitRun:
    """One process-backend campaign with a store, barrier-timed.

    Set-up ends when the last worker has answered ``started``.  Each
    slice runs from one barrier to the next (one sync interval of
    virtual cycles on every worker); the coordinator calibrates the
    host clock at each barrier, outside the slices.
    """
    target = workload.targets[0]
    label = f"campaign-{target}/seed{seed}"
    state_dir = tempfile.mkdtemp(prefix="state-", dir=scratch)
    started: List[float] = []
    slices: List[float] = []
    resumed: List[float] = []

    def on_barrier(summary) -> None:
        now = perf_counter()
        began = resumed[-1] if resumed else max(started)
        slices.append((now - began) * clock.calibrate())
        resumed.append(perf_counter())

    scale = clock.calibrate()
    start = perf_counter()
    orchestrator = make_campaign(
        get_target(target), workload.workers, workload.budget_cycles,
        campaign_seed=seed, sync_interval=workload.sync_interval,
        state_dir=state_dir, backend="process", epoch_hook=on_barrier)
    for handle in orchestrator.handles:
        def join_start(join=handle.join_start):
            join()
            started.append(perf_counter())
        handle.join_start = join_start
    result = orchestrator.run()
    shutil.rmtree(state_dir)

    setup_s = (max(started) - start) * (scale + clock.scale) / 2
    raw_loop_s = sum(later - earlier for earlier, later in
                     zip([max(started)] + resumed, resumed))
    stats = result.stats
    workers = stats.workers
    crashes = sorted(result.crash_signatures())
    block = {
        "unit": label,
        "programs": stats.total_programs(),
        "edges": result.merged_edges,
        "edge_set": digest(sorted(result.edges)),
        "crashes": crashes,
        "corpus": digest(result.corpus_digests),
        "link_transactions": sum(w.link_transactions for w in workers),
        "semantic": digest(stats.to_dict()),
    }
    return UnitRun(
        label=label, setup_s=setup_s, loop_s=sum(slices),
        raw_loop_s=raw_loop_s, programs=stats.total_programs(),
        attempted=sum(w.programs_executed + w.rejected_programs
                      for w in workers),
        failed=sum(w.rejected_programs + w.link_timeouts for w in workers)
        + stats.aborted_workers,
        edges=result.merged_edges, unique_crashes=len(crashes),
        block=block, slices_s=slices,
        snapshot_restores=sum(w.snapshot_restores for w in workers),
        snapshot_pages=sum(w.snapshot_pages_written for w in workers),
        epochs=stats.sync_epochs, lost_workers=stats.aborted_workers)


def run_units(workload: Workload, seed: int, rounds: Sequence[int],
              sliced: bool, scratch: str,
              clock: HostClock) -> List[List[UnitRun]]:
    """Every unit of the given rounds, grouped by round."""
    grouped = []
    for index in rounds:
        unit_seed = sub_seed(seed, index)
        cold = index < COLD_ROUNDS or not sliced
        if workload.campaign:
            grouped.append([run_campaign_unit(workload, unit_seed,
                                              scratch, clock)])
        else:
            grouped.append([run_board_unit(workload, target, unit_seed,
                                           sliced, cold, scratch, clock)
                            for target in workload.targets])
    return grouped


def mismatches(first: List[List[UnitRun]],
               second: List[List[UnitRun]]) -> List[str]:
    """Units whose virtual blocks differ between two repeats."""
    bad = []
    for round_a, round_b in zip(first, second):
        for unit_a, unit_b in zip(round_a, round_b):
            if unit_a.block != unit_b.block:
                bad.append(unit_a.label)
    return bad


def flatten(grouped: List[List[UnitRun]]) -> List[UnitRun]:
    return [unit for round_units in grouped for unit in round_units]


def execs_per_s(units: Sequence[UnitRun]) -> float:
    return sum(u.programs for u in units) / sum(u.loop_s for u in units)


def peak_rss_mb(workload: Workload) -> float:
    """Peak resident memory in MiB: this process, plus each campaign
    worker at the largest worker peak seen."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload.campaign:
        child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        own += workload.workers * child
    return own / 1024.0


def percentile_ms(samples: Sequence[float], pct: int) -> float:
    cuts = statistics.quantiles(samples, n=100)
    return cuts[pct - 1] * 1000.0


@dataclass
class Outcome:
    """What one run of a workload reports."""

    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, Tuple[float, str]]
    notes: List[str]


def sanity_problems(units: Sequence[UnitRun]) -> List[str]:
    problems = []
    for unit in units:
        if unit.programs <= 0 or unit.edges <= 0:
            problems.append(f"{unit.label}: no programs or no edges")
        if unit.lost_workers:
            problems.append(f"{unit.label}: lost {unit.lost_workers} "
                            f"worker(s)")
    return problems


def measure(workload: Workload, seed: int, seconds: float,
            scratch: str) -> Outcome:
    """The untraced run: end-to-end metrics plus the correctness checks.

    Every round runs once, sliced.  Round 0 then runs again, set up
    cold and each unit in one ``run_until(budget)`` call, and must
    match the sliced run byte for byte: the repeat check and the slice
    check at once.
    """
    clock = HostClock()
    rounds = range(workload.rounds(seconds))
    measured = run_units(workload, seed, rounds, True, scratch, clock)
    check = run_units(workload, seed, [0], False, scratch, clock)
    bad = [f"repeat mismatch: {label}"
           for label in mismatches(measured[:1], check)]
    units = flatten(measured)
    every = units + flatten(check)
    problems = sanity_problems(every)

    slices = [s for u in units for s in u.slices_s]
    setups = [sum(u.setup_s for u in group)
              for group in measured[:COLD_ROUNDS] + check]
    wall_eps = sum(u.programs for u in units) / \
        sum(u.raw_loop_s for u in units)
    notes = bad + problems + [f"{u.label} failed: {u.error}"
                              for u in every if u.error] + [
        f"rounds={len(rounds)}+1 units={len(every)} "
        f"slice_samples={len(slices)} setup_samples={len(setups)}",
        f"host speed {clock.speed():.3f} of reference; wall-clock "
        f"{wall_eps:.1f} programs/s"]
    if len(workload.targets) > 1:
        for target in workload.targets:
            leg = [u for u in units if u.label.startswith(target + "/")]
            notes.append(f"{target}: {execs_per_s(leg):.1f} programs/s")
    metrics = {
        "execs_per_s": (execs_per_s(units), "programs/s"),
        "slice_ms_p50": (percentile_ms(slices, 50), "ms"),
        "slice_ms_p99": (percentile_ms(slices, 99), "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb(workload), "MiB"),
        "edges": (float(sum(u.edges for u in units)), "count"),
    }
    return Outcome(
        correct=not bad and not problems,
        attempted=sum(u.attempted for u in every),
        failed=sum(u.failed for u in every),
        metrics=metrics, notes=notes)


def measure_traced(workload: Workload, seed: int, seconds: float,
                   scratch: str) -> Outcome:
    """The traced run: per-layer metrics and the tracing overhead.

    Half the rounds run untraced, then the same rounds run traced; the
    two must agree byte for byte (tracing changes no virtual result),
    and their execs/s ratio is the tracing overhead.
    """
    from tracing import LayerTracer, install_layer_hooks

    clock = HostClock()
    rounds = range(max(1, workload.rounds(seconds) // 2))
    reference = run_units(workload, seed, rounds, True, scratch, clock)
    tracer = LayerTracer()
    install_layer_hooks(tracer)
    try:
        traced = run_units(workload, seed, rounds, True, scratch, clock)
    finally:
        tracer.uninstall()
    bad = mismatches(reference, traced)
    ref_units, units = flatten(reference), flatten(traced)
    problems = sanity_problems(ref_units + units)
    metrics = layer_metrics(tracer, units)
    untraced_eps = execs_per_s(ref_units)
    traced_eps = execs_per_s(units)
    metrics["trace.untraced_execs_per_s"] = (untraced_eps, "programs/s")
    metrics["trace.execs_per_s"] = (traced_eps, "programs/s")
    metrics["trace.overhead"] = (untraced_eps / traced_eps - 1.0, "ratio")
    attempted = sum(u.attempted for u in ref_units + units)
    failed = sum(u.failed for u in ref_units + units)
    metrics["run.failed_share"] = (failed / max(attempted, 1), "ratio")
    notes = [f"repeat mismatch: {label}" for label in bad] + problems
    notes.append(f"traced rounds={len(rounds)} units={len(units)}")
    return Outcome(correct=not bad and not problems, attempted=attempted,
                   failed=failed, metrics=metrics, notes=notes)


def layer_metrics(tracer, units: Sequence[UnitRun]) \
        -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics from one traced pass (totals over its units).

    Seconds are raw wall-clock seconds, with ``trace.loop_s`` as their
    base.  Set-up phases, ``farm.start_s`` and ``farm.barrier_wait_s``
    are inclusive span seconds; every other ``*_s`` is self time.
    """
    spans, counts = tracer.spans, tracer.counts

    def calls(name: str) -> float:
        return float(spans[name].calls) if name in spans else 0.0

    def self_s(*names: str) -> float:
        return sum(spans[n].self_s for n in names if n in spans)

    def total_s(name: str) -> float:
        return spans[name].total_s if name in spans else 0.0

    def count(name: str) -> float:
        return float(counts.get(name, 0))

    loop_s = sum(u.raw_loop_s for u in units)
    offered = count("fuzz.feedback.offered")
    s, c, r = "s", "count", "ratio"
    return {
        "firmware.build_s": (total_s("firmware.build"), s),
        "spec.gen_s": (total_s("spec.gen"), s),
        "analysis.reach_s": (total_s("analysis.reach"), s),
        "engine.start_s": (total_s("engine.start"), s),
        "engine.self_s": (self_s("engine"), s),
        "fuzz.generator.calls": (calls("fuzz.generator"), c),
        "fuzz.generator.self_s": (self_s("fuzz.generator"), s),
        "fuzz.mutator.calls": (calls("fuzz.mutator"), c),
        "fuzz.mutator.self_s": (self_s("fuzz.mutator"), s),
        "agent.serialize.self_s": (self_s("agent.serialize"), s),
        "instrument.sancov.hits": (count("instrument.sancov.hits"), c),
        "instrument.decode.calls": (calls("instrument.decode"), c),
        "instrument.decode.records":
            (count("instrument.decode.records"), c),
        "instrument.decode.self_s": (self_s("instrument.decode"), s),
        "fuzz.feedback.add_new_s": (self_s("fuzz.feedback.add_new"), s),
        "fuzz.feedback.fresh_ratio":
            (count("fuzz.feedback.fresh") / offered if offered else 0.0, r),
        "hw.resume.calls": (calls("hw.resume"), c),
        "hw.resume.self_s": (self_s("hw.resume"), s),
        "hw.mem.calls": (count("hw.mem.calls"), c),
        "link.transactions": (calls("link"), c),
        "link.commands": (count("link.commands"), c),
        "link.bytes": (count("link.bytes"), "bytes"),
        "link.self_s": (self_s("link"), s),
        "fuzz.snapshot.restores":
            (float(sum(u.snapshot_restores for u in units)), c),
        "fuzz.snapshot.restore_s": (self_s("fuzz.snapshot.restore"), s),
        "fuzz.snapshot.pages":
            (float(sum(u.snapshot_pages for u in units)), c),
        "hw.runtime_image.restore_s":
            (self_s("hw.runtime_image.restore"), s),
        "fuzz.corpus.self_s": (self_s("fuzz.corpus"), s),
        "fuzz.monitors.self_s": (self_s("fuzz.monitors"), s),
        "fuzz.restore.reflashes": (calls("fuzz.restore.reflash"), c),
        "fuzz.restore.self_s":
            (self_s("fuzz.restore", "fuzz.restore.reflash"), s),
        "fuzz.crash.unique":
            (float(sum(u.unique_crashes for u in units)), c),
        "farm.start_s": (total_s("farm.start"), s),
        "farm.epochs": (float(sum(u.epochs for u in units)), c),
        "farm.barrier_wait_s": (total_s("farm.barrier"), s),
        "farm.barrier_wait_share":
            (total_s("farm.barrier") / loop_s if loop_s else 0.0, r),
        "farm.wire.bytes": (count("farm.wire.bytes"), "bytes"),
        "farm.wire.self_s": (self_s("farm.wire"), s),
        "farm.state.push_s": (self_s("farm.state.push"), s),
        "farm.state.pull_s": (self_s("farm.state.pull"), s),
        "db.record_epoch_s": (self_s("db.record_epoch"), s),
        "obs.events": (calls("obs.emit"), c),
        "obs.emit_s": (self_s("obs.emit"), s),
        "trace.loop_s": (loop_s, s),
    }
