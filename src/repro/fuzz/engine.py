"""The EOF fuzzing loop (Figure 3 / Figure 4).

One iteration: pick or generate an API-aware program, serialize it into
the agent's input buffer over the debug link, drive the agent through its
sync breakpoints, drain coverage (including mid-run ``_kcmp_buf_full``
traps), run the bug monitors over halts and UART output, decide
interestingness, and keep the target alive through the watchdogs and
reflash-based restoration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.agent.protocol import TestProgram, serialize_program
from repro.ddi.session import DebugSession, open_session
from repro.errors import (
    DebugLinkError,
    DebugLinkTimeout,
    FlashError,
    ProtocolError,
    RecoveryExhausted,
)
from repro.firmware.builder import BuildInfo
from repro.fuzz.corpus import Corpus
from repro.fuzz.crash import CrashDb, CrashReport, KIND_HANG
from repro.fuzz.feedback import CoverageMap
from repro.fuzz.generator import ProgramGenerator
from repro.fuzz.monitors import ExceptionMonitor, LogMonitor
from repro.fuzz.mutator import ProgramMutator
from repro.fuzz.restore import (
    REBOOT_CYCLES,
    RecoveryLadder,
    StateRestoration,
)
from repro.fuzz.rng import FuzzRng
from repro.fuzz.snapshot import SnapshotManager
from repro.fuzz.stats import FuzzStats
from repro.fuzz.watchdog import LivenessWatchdog
from repro.hw.machine import HaltEvent, HaltReason
from repro.instrument.sancov import decode_coverage_buffer
from repro.instrument.sites import CLAMPS
from repro.obs import NULL_OBS, Observability
from repro.spec.model import SpecSet

AGENT_STATUS_CRASHED = 4

#: Chance that the next program mutates a corpus seed instead of being
#: freshly generated (once the exploitation phase has begun).
MUTATE_PROBABILITY = 0.25
#: Syzkaller-style "smash": on new coverage, immediately queue this many
#: one-shot variants of the discovering input.
SMASH_COUNT = 6

__all__ = ["AGENT_STATUS_CRASHED", "REBOOT_CYCLES", "EngineOptions",
           "FuzzResult", "EofEngine"]


@dataclass
class EngineOptions:
    """Knobs that differentiate EOF from its ablations/baselines."""

    seed: int = 0
    budget_cycles: int = 2_000_000
    max_iterations: int = 1_000_000
    feedback: bool = True               # EOF-nf turns this off
    use_exception_monitor: bool = True  # Tardis-style engines turn this off
    use_log_monitor: bool = True
    restore_with_reflash: bool = True   # False = naive reboot-only recovery
    record_hangs_as_crashes: bool = False  # timeout-only detection (Tardis)
    # Snapshot-tier restoration (repro.fuzz.snapshot): capture RAM +
    # registers after the clean boot and recover crashes by dirty-page
    # write-back instead of reflash.  Off = the historical
    # reflash-ladder-only path; fuzzing outcomes are identical either
    # way (the restore-equivalence suite gates it), only recovery
    # latency changes.
    snapshots: bool = True
    # Restore to the pristine post-boot state every N executed programs
    # (0 = only restore on crashes).  This is the snapshot-vs-reflash
    # throughput workload: with snapshots the periodic restore is a
    # dirty-page write-back, without them a full Algorithm 1 reflash.
    restore_every: int = 0
    # §6 extension: probe allocator metadata over the debug link every N
    # programs (0 = off).  Catches silent corruption the crash monitors
    # never see.
    heap_probe_every: int = 0
    # Deterministic fault injection (repro.chaos): a profile name from
    # repro.chaos.PROFILES, or None for a clean link.  chaos_seed defaults
    # to the fuzzing seed so one seed fixes the whole run.
    chaos_profile: Optional[str] = None
    chaos_seed: Optional[int] = None
    name: str = "eof"


@dataclass
class FuzzResult:
    """Everything a run produced."""

    name: str
    os_name: str
    stats: FuzzStats
    coverage: CoverageMap
    crash_db: CrashDb
    corpus_size: int = 0

    @property
    def edges(self) -> int:
        """Final distinct-edge count (the tables' branch metric)."""
        return self.coverage.edge_count


class EofEngine:
    """The host fuzzer bound to one build + spec."""

    def __init__(self, build: BuildInfo, spec: SpecSet,
                 options: Optional[EngineOptions] = None,
                 obs: Optional[Observability] = None):
        self.build = build
        self.spec = spec
        self.options = options or EngineOptions()
        self.obs = obs or NULL_OBS
        if self.obs.enabled and not self.obs.run_id:
            self.obs.set_run_id(
                f"{self.options.name}-{build.config.os_name}"
                f"-seed{self.options.seed}")
        self.rng = FuzzRng(self.options.seed)
        self.coverage = CoverageMap()
        self.corpus = Corpus()
        self.crash_db = CrashDb()
        self.stats = FuzzStats()
        self.generator = ProgramGenerator(
            spec, self.rng,
            coverage=self.coverage if self.options.feedback else None)
        self.mutator = ProgramMutator(spec, self.rng, self.generator)
        # Statically-reachable edge universe for this build: the
        # denominator of the coverage-saturation metric.  Analysis is
        # best-effort — an unanalyzable build just reports saturation 0.
        try:
            from repro.analysis.reach import reachable_edge_universe
            self.stats.reachable_edges = reachable_edge_universe(build)
        except Exception:
            self.stats.reachable_edges = 0
        self.session: Optional[DebugSession] = None
        self.watchdog: Optional[LivenessWatchdog] = None
        self.restoration: Optional[StateRestoration] = None
        self.ladder: Optional[RecoveryLadder] = None
        self.snapshot: Optional[SnapshotManager] = None
        self.chaos = None
        self._smash_queue: List[TestProgram] = []
        self._inject_queue: List[TestProgram] = []
        self._recent_new_edges: List[int] = []
        self._fresh_edges: List[int] = []
        #: Board cycle clock when the current program's injection began.
        self._run_started_at = 0
        self._iteration = 0
        self._clamps_at_start = 0
        # Campaign mode: edges other boards already covered (the global
        # bitmap, refreshed at sync epochs).  Locally-fresh edges that
        # are foreign-known earn no interestingness reward, so workers
        # steer away from each other's territory instead of
        # rediscovering it.
        self.foreign_edges: set = set()
        self.heap_probe = None
        self.log_monitor = LogMonitor(build.config.os_name, obs=self.obs)
        self.exception_monitor: Optional[ExceptionMonitor] = None
        self._exception_symbol = ""

    # -- setup -------------------------------------------------------------------

    def _attach(self) -> None:
        self.session = open_session(self.build, obs=self.obs)
        self.watchdog = LivenessWatchdog(self.session, obs=self.obs)
        self.restoration = StateRestoration(self.session, obs=self.obs)
        if self.options.snapshots:
            self.snapshot = SnapshotManager(self.session, stats=self.stats,
                                            obs=self.obs)
        self.ladder = RecoveryLadder(
            self.session, self.restoration, watchdog=self.watchdog,
            stats=self.stats, obs=self.obs, rearm=self._rearm_after_boot,
            use_reflash=self.options.restore_with_reflash,
            snapshot=self.snapshot)
        board = self.session.board
        if board.boot_failed or board.runtime is None:
            raise RuntimeError("target never booted; image is broken")
        kernel = board.runtime.kernel
        self._exception_symbol = kernel.EXCEPTION_SYMBOL
        self._arm_sync_breakpoints()
        if self.options.use_exception_monitor:
            self.exception_monitor = ExceptionMonitor(
                self.session, self.build.config.os_name,
                [self._exception_symbol], obs=self.obs)
            self.exception_monitor.arm()
        if self.options.heap_probe_every > 0:
            from repro.fuzz.health import HeapHealthProbe
            self.heap_probe = HeapHealthProbe(
                self.session, every_n_programs=self.options.heap_probe_every)
        self.session.consume_boot_chatter()
        if self.snapshot is not None:
            # Snapshot the verified clean boot before fault injection
            # goes live: the capture is factory bring-up, and the image
            # must be trusted.  Charged before start_cycles, so the
            # one-time capture cost is not the fuzzing loop's to answer.
            self.snapshot.capture()
        if self.options.chaos_profile:
            # Install fault injection only after clean factory bring-up:
            # chaos models a flaky *deployed* link, not a broken bench.
            # (Imported here: repro.chaos sits above repro.fuzz.rng.)
            from repro.chaos import FaultPlan, get_profile, install_chaos
            seed = self.options.chaos_seed
            if seed is None:
                seed = self.options.seed
            plan = FaultPlan(get_profile(self.options.chaos_profile),
                             seed=seed, obs=self.obs)
            self.chaos = install_chaos(self.session, plan, obs=self.obs)

    def _arm_sync_breakpoints(self) -> None:
        """Arm the agent sync points in one batched transaction."""
        link = self.session.link
        with link.batch():
            for symbol in ("executor_main", "read_prog", "execute_one",
                           "_kcmp_buf_full"):
                link.break_insert(self.build.address_of(symbol),
                                  label="agent-sync")

    def _rearm_after_boot(self) -> None:
        """Re-install breakpoints lost to a power event (none are on our
        virtual probe, but arming is idempotent and cheap)."""
        self._arm_sync_breakpoints()
        if self.exception_monitor is not None:
            self.exception_monitor._armed = False
            self.exception_monitor.arm()
        self.watchdog.reset()

    # -- the loop ------------------------------------------------------------------

    def run(self) -> FuzzResult:
        """Fuzz until the cycle budget or iteration cap is exhausted."""
        self.start()
        self.run_until(self.options.budget_cycles)
        return self.finish()

    def start(self) -> None:
        """Attach to the target and open the run (idempotent)."""
        if self.session is not None:
            return
        self._attach()
        self._clamps_at_start = CLAMPS.count
        # Cycle-budget baseline: boot spent cycles before the loop ever
        # ran, and the profiler only accounts for the loop's own budget.
        self.stats.start_cycles = self.session.board.machine.cycles
        if self.obs.enabled:
            self.obs.emit("run.start", fuzzer=self.options.name,
                          os=self.build.config.os_name,
                          seed=self.options.seed,
                          budget_cycles=self.options.budget_cycles)

    def run_until(self, cycle_limit: int) -> bool:
        """Fuzz until the board's cycle clock reaches ``cycle_limit``
        (clamped to the budget) or the iteration cap is hit.

        This is the campaign sync point: ``repro.farm`` steps each
        worker engine one epoch at a time and merges state at the
        cycle-based boundaries, so the whole campaign stays
        deterministic.  Returns True while budget remains.
        """
        opts = self.options
        board = self.session.board
        limit = min(cycle_limit, opts.budget_cycles)
        try:
            while (board.machine.cycles < limit
                   and self._iteration < opts.max_iterations):
                self._iteration += 1
                program = self._next_program()
                self._execute_program(program)
                if opts.restore_every > 0 and \
                        self._iteration % opts.restore_every == 0:
                    self._periodic_restore()
                if opts.feedback and self._iteration % 64 == 0:
                    self.coverage.decay_credit()
                self.stats.record_point(board.machine.cycles,
                                        self.coverage.edge_count)
                # Telemetry sampling at virtual-cycle epochs: one int
                # compare per iteration until a boundary is crossed.
                sampler = self.obs.sampler
                if sampler is not None and \
                        board.machine.cycles >= sampler.next_cycles:
                    count = sampler.maybe_sample(board.machine.cycles,
                                                 self._telemetry_row)
                    if count and self.obs.enabled:
                        self.obs.counter("ts.samples").inc(count)
                        self.obs.emit("ts.sample",
                                      epoch=sampler.last_epoch,
                                      edges=self.coverage.edge_count)
            self._sync_link_stats()
        except RecoveryExhausted:
            # Quarantine: the board never came back.  Stop loudly rather
            # than fuzz dead hardware, but leave the stats consistent so
            # the caller can still report what the run achieved.
            self.stats.record_point(board.machine.cycles,
                                    self.coverage.edge_count)
            self._sync_link_stats()
            if self.obs.enabled:
                self.obs.emit("run.abort", reason="recovery-exhausted",
                              edges=self.coverage.edge_count,
                              programs=self.stats.programs_executed)
            raise
        return (board.machine.cycles < opts.budget_cycles
                and self._iteration < opts.max_iterations)

    def _periodic_restore(self) -> None:
        """Return to the pristine post-boot state between programs
        (``restore_every``): stateless-fuzzing mode, and the workload
        the snapshot-vs-reflash throughput gate measures.  Dirty-page
        write-back when a snapshot is ready; Algorithm 1 reflash
        otherwise.  Either way the board is left verified alive."""
        with self.obs.span("restore"):
            if self.snapshot is not None and self.snapshot.ready and \
                    self.snapshot.restore():
                self._rearm_after_boot()
                return
            if self.restoration is not None:
                self.stats.restorations += 1
                try:
                    restored = self.restoration.restore()
                except (DebugLinkError, DebugLinkTimeout, FlashError):
                    # e.g. a chaos-corrupted reflash failing its verify
                    # readback: the ladder's bounded retries handle it.
                    restored = False
                if restored:
                    self._rearm_after_boot()
                    self.session.consume_boot_chatter()
                    return
        # The pristine restore itself failed (corrupt flash, chaos):
        # climb the ladder like any other recovery.
        self._escalate(start="reboot", reason="periodic-restore")

    def _sync_link_stats(self) -> None:
        """Mirror the link's accounting into the run stats."""
        self.stats.link_transactions = self.session.link.transactions
        self.stats.link_bytes = self.session.link.bytes_moved

    def _telemetry_row(self) -> dict:
        """One time-series sample: integer state only, never wall clock,
        so identical seeds stream byte-identical ``timeseries.jsonl``."""
        phases = {name: int(entry.get("cycles", 0))
                  for name, entry in
                  sorted(self.obs.tracer.snapshot().items())}
        return {
            "edges": self.coverage.edge_count,
            "programs": self.stats.programs_executed,
            "crashes": self.stats.crashes_observed,
            "unique_crashes": self.stats.unique_crashes,
            "corpus": len(self.corpus),
            "restores": self.stats.restorations,
            "recoveries": self.stats.recoveries,
            "link_txns": self.session.link.transactions,
            "link_bytes": self.session.link.bytes_moved,
            "phases": phases,
        }

    def finish(self) -> FuzzResult:
        """Close the run and return its result bundle."""
        board = self.session.board
        self.stats.record_point(board.machine.cycles,
                                self.coverage.edge_count)
        self._sync_link_stats()
        if self.obs.enabled:
            # Sub-site ids that fell outside a function's declared block
            # during this run: each is an out-of-range ``ctx.cov(n)`` the
            # modulo clamp silently folded (see EOF202/EOF203).
            clamped = CLAMPS.count - self._clamps_at_start
            if clamped > 0:
                self.obs.counter("sites.clamped").inc(clamped)
            self.obs.gauge("corpus.size").set(len(self.corpus))
            self.obs.emit("run.end", edges=self.coverage.edge_count,
                          programs=self.stats.programs_executed,
                          unique_crashes=self.stats.unique_crashes,
                          restorations=self.stats.restorations)
        return FuzzResult(name=self.options.name,
                          os_name=self.build.config.os_name,
                          stats=self.stats, coverage=self.coverage,
                          crash_db=self.crash_db,
                          corpus_size=len(self.corpus))

    def inject_programs(self, programs: List[TestProgram]) -> None:
        """Queue cross-worker seeds for replay (the campaign import
        path).  Injected programs run before local generation; the ones
        that reproduce their coverage here are admitted to the local
        corpus through the ordinary interestingness test."""
        self._inject_queue.extend(programs)
        self.stats.imported_seeds += len(programs)

    def import_entries(self, entries) -> int:
        """Merge foreign corpus entries directly into the local pool
        (the zero-cost campaign import path).

        Unlike :meth:`inject_programs` this spends no target cycles:
        the seed arrives with its recorded footprint and weight inputs,
        and becomes mutation/splice material immediately.  Returns how
        many entries were actually new here.
        """
        imported = 0
        for entry in entries:
            if self.corpus.import_entry(entry) is not None:
                imported += 1
        self.stats.imported_seeds += imported
        return imported

    def absorb_frontier(self, edges) -> None:
        """Refresh the foreign-edge view of the global coverage bitmap
        (campaign sync hook; edges this board saw itself are kept out
        of the foreign set so local reporting stays local)."""
        self.foreign_edges.update(
            edge for edge in edges if edge not in self.coverage.edges)

    def _discovery_rate(self) -> float:
        """New edges per program over the recent window."""
        window = self._recent_new_edges[-150:]
        if len(window) < 50:
            return 1.0  # still in the pilot phase
        return sum(window) / len(window)

    def _exploiting(self) -> bool:
        """Exploration/exploitation schedule: while fresh generation is
        still discovering rapidly, mutation and smash are a waste of the
        budget; they pay once the easy surface is sampled out."""
        return self._discovery_rate() < 0.15

    def _next_program(self) -> TestProgram:
        opts = self.options
        if self._inject_queue:
            return self._inject_queue.pop(0)
        if self._smash_queue:
            return self._smash_queue.pop()
        if opts.feedback and len(self.corpus) > 0 and \
                self._exploiting() and \
                self.rng.chance(MUTATE_PROBABILITY):
            entry = self.corpus.pick(self.rng)
            if entry is not None:
                with self.obs.span("mutate"):
                    if len(self.corpus) > 1 and self.rng.chance(0.2):
                        other = self.corpus.pick(self.rng)
                        if other is not None and other is not entry:
                            return self.mutator.splice(entry.program,
                                                       other.program)
                    return self.mutator.mutate(entry.program)
        with self.obs.span("generate"):
            return self.generator.generate()

    # -- one test case ---------------------------------------------------------------

    def _execute_program(self, program: TestProgram) -> None:
        self._fresh_edges = []
        try:
            raw = serialize_program(program)
        except ProtocolError:
            self.stats.rejected_programs += 1
            return
        link = self.session.link
        layout = self.build.ram_layout
        if len(raw) + 4 > layout.input_buf_size:
            self.stats.rejected_programs += 1
            return
        self._run_started_at = self.session.board.machine.cycles
        try:
            # Header write + payload write + the resume into read_prog,
            # pipelined as ONE link transaction (§4.5: the injection
            # round-trips dominate short programs).
            with self.obs.span("flash-program"):
                with link.batch():
                    link.write_u32(layout.input_buf_addr, len(raw))
                    link.write_memory(layout.input_buf_addr + 4, raw)
                    first = link.exec_continue()
            self._drive(program, first.result())
        except DebugLinkTimeout:
            self.stats.link_timeouts += 1
            if self.watchdog is not None:
                self.watchdog.note_timeout()
            self._salvage()

    def _drive(self, program: TestProgram, first_halt: HaltEvent) -> None:
        link = self.session.link
        new_edges = 0
        # ``first_halt`` is the read_prog halt the injection batch
        # resumed to.
        if self._handle_abnormal(first_halt, program, new_edges):
            return
        # execute_one halt (or straight back to executor_main on reject).
        with self.obs.span("continue"):
            event = link.exec_continue()
        if event.symbol == "executor_main":
            self.stats.rejected_programs += 1
            self._post_run(program, new_edges, executed=False)
            return
        if self._handle_abnormal(event, program, new_edges):
            return
        # Execution until completion, draining cov-full traps.
        while True:
            with self.obs.span("continue"):
                event = link.exec_continue()
            if event.reason == HaltReason.COV_FULL:
                self.stats.cov_full_traps += 1
                new_edges += self._drain_coverage()
                continue
            if event.symbol == "executor_main" and \
                    event.reason == HaltReason.BREAKPOINT:
                self.stats.programs_executed += 1
                self.stats.calls_executed += len(program.calls)
                self._post_run(program, new_edges, executed=True)
                return
            if self._handle_abnormal(event, program, new_edges):
                return
            # Unexpected stop (e.g. read_prog after a desync): continue.

    def _handle_abnormal(self, event: HaltEvent, program: TestProgram,
                         new_edges: int) -> bool:
        """Returns True if the event terminated this test case."""
        if event.reason == HaltReason.EXCEPTION:
            self._on_exception(event, program, new_edges)
            return True
        if event.reason == HaltReason.STALL:
            self._on_stall(event, program, new_edges)
            return True
        return False

    def _record_crash(self, report: CrashReport) -> bool:
        """Count one crash observation; True if it is a new unique crash."""
        self.stats.crashes_observed += 1
        fresh = self.crash_db.add(report)
        if fresh:
            self.stats.unique_crashes += 1
        if self.obs.enabled:
            self.obs.counter("crash.observed").inc()
            self.obs.emit("crash.report", kind=report.kind,
                          monitor=report.monitor, cause=report.cause,
                          unique=fresh)
        if fresh and self.obs.flight is not None:
            # Black-box dump for every *new* signature; duplicates are
            # deduplicated inside the recorder.
            self.obs.flight.dump("crash", report.signature(),
                                 obs=self.obs)
        return fresh

    def _post_run(self, program: TestProgram, new_edges: int,
                  executed: bool) -> None:
        new_edges += self._drain_coverage()
        self._recent_new_edges.append(new_edges)
        if self.heap_probe is not None and executed:
            defect = self.heap_probe.maybe_probe()
            if defect is not None:
                self._record_crash(CrashReport(
                    os_name=self.build.config.os_name,
                    kind="silent-corruption", cause=defect,
                    monitor="heap-probe", program=program))
        log_reports = self._scan_logs(program)
        crashed = bool(log_reports)
        if self.obs.enabled:
            spent = self._cycles_spent()
            self.obs.histogram("exec.cycles").record(spent)
            self.obs.emit("exec.program", executed=executed,
                          calls=len(program.calls), new_edges=new_edges,
                          cycles_spent=spent, crashed=crashed)
        if self._admit(program, new_edges, crashed):
            self.coverage.credit_calls(
                [call.api_id for call in program.calls], new_edges)
            if self.obs.enabled:
                self.obs.gauge("corpus.size").set(len(self.corpus))
                self.obs.emit("corpus.add", new_edges=new_edges,
                              crashed=crashed, size=len(self.corpus))
            if new_edges > 0 and self._exploiting():
                self._smash(program)

    def _cycles_spent(self) -> int:
        """Board cycles the current program has cost so far."""
        return self.session.board.machine.cycles - self._run_started_at

    def _admit(self, program: TestProgram, new_edges: int,
               crashed: bool) -> bool:
        """Save a program that found new edges or a (new) crash into
        the corpus; True when it was saved."""
        if not (self.options.feedback and (new_edges > 0 or crashed)):
            return False
        self.corpus.add(program, new_edges, crashed=crashed,
                        exec_cycles=self._cycles_spent(),
                        edges=self._fresh_edges)
        return True

    def _smash(self, program: TestProgram) -> None:
        """Queue immediate neighbourhood variants of a discovering input
        (Syzkaller's smash phase): the gradient is hottest right now."""
        for _ in range(SMASH_COUNT):
            self._smash_queue.append(self.mutator.mutate(program))

    def _drain_coverage(self) -> int:
        layout = self.build.ram_layout
        capacity = (layout.cov_buf_size - 4) // 4
        with self.obs.span("drain-coverage"):
            # One COV_DRAIN transaction: generation check, count, body
            # and clear in a single exchange; an unchanged generation
            # word means nothing new landed and the whole drain cost one
            # word read.
            try:
                raw = self.session.link.cov_drain(
                    layout.cov_buf_addr, capacity,
                    gen_addr=layout.cov_gen_addr)
            except DebugLinkTimeout:
                return 0
            if raw is None:
                if self.obs.enabled:
                    self.obs.counter("link.drain.skipped").inc()
                return 0
            edges = decode_coverage_buffer(raw, obs=self.obs)
            fresh_edges = self.coverage.add_new(edges)
            if self.foreign_edges:
                # Campaign dedup: an edge some other board already
                # covered still enters the local map (it *was* seen
                # here) but earns no reward — rediscovering the global
                # frontier is not progress.
                fresh_edges = [edge for edge in fresh_edges
                               if edge not in self.foreign_edges]
            self._fresh_edges.extend(fresh_edges)
            fresh = len(fresh_edges)
        if self.obs.enabled:
            self.obs.counter("coverage.drain.bytes").inc(len(raw))
            self.obs.histogram(
                "coverage.drain.records",
                buckets=(1, 4, 16, 64, 256, 1024)).record(len(edges))
            if fresh:
                self.obs.emit("coverage.growth", new_edges=fresh,
                              total_edges=self.coverage.edge_count)
        return fresh

    def _scan_logs(self, program: Optional[TestProgram]) -> List[CrashReport]:
        """Returns only the *new* (previously unseen) crash reports."""
        if not self.options.use_log_monitor:
            self.session.drain_uart()
            return []
        with self.obs.span("triage"):
            lines = self.session.drain_uart()
            fresh = []
            for report in self.log_monitor.scan(lines):
                report.program = program
                if self._record_crash(report):
                    fresh.append(report)
        return fresh

    # -- failure paths ------------------------------------------------------------------

    def _on_exception(self, event: HaltEvent, program: TestProgram,
                      new_edges: int) -> None:
        new_edges += self._drain_coverage()
        new_crash = False
        if self.exception_monitor is not None and \
                self.exception_monitor.matches(event):
            with self.obs.span("triage"):
                report = self.exception_monitor.capture(event)
                report.program = program
                new_crash = self._record_crash(report)
                # The panic banner on the UART belongs to this same crash;
                # don't let the log monitor double-report it.
                self.session.drain_uart()
        else:
            new_crash = bool(self._scan_logs(program))
        # Save the payload when it found something new — re-admitting
        # every duplicate crasher just burns the budget on restores.
        if self._admit(program, new_edges, new_crash):
            self.coverage.credit_calls(
                [call.api_id for call in program.calls], new_edges)
        self._recover()

    def _on_stall(self, event: HaltEvent, program: TestProgram,
                  new_edges: int) -> None:
        self.stats.stalls += 1
        new_edges += self._drain_coverage()
        # An assertion hang leaves its line on the UART: the log monitor
        # (not the exception monitor) is what attributes these (§4.5.2).
        crashed = bool(self._scan_logs(program))
        if not crashed and self.options.record_hangs_as_crashes:
            # Timeout-only detection (the Tardis model): every hang is
            # recorded, without backtrace or cause attribution.
            self._record_crash(CrashReport(
                os_name=self.build.config.os_name,
                kind=KIND_HANG, cause="target hang",
                detail=event.detail, monitor="timeout",
                program=program))
            crashed = True
        self._admit(program, new_edges, crashed)
        # Algorithm 1: confirm via the watchdog, then salvage.  A parked
        # PC with intact flash only needs a reboot; the reflash hammer is
        # for images that no longer boot.
        if self.watchdog is not None and not self.watchdog.check():
            pass  # expected: PC is parked
        self._recover()

    def _recover(self) -> None:
        """Post-crash recovery: snapshot write-back when a trusted
        snapshot is ready, else start at the reboot rung (the crash is
        real; a bare retry would just re-probe a panicked kernel — which
        is also why the snapshot path skips the retry rung on the way
        down)."""
        if self.snapshot is not None and self.snapshot.ready:
            self._escalate(start="snapshot", reason="crash",
                           skip=("retry",))
        else:
            self._escalate(start="reboot", reason="crash")

    def _salvage(self) -> None:
        """Link-loss recovery: climb the ladder from the retry rung —
        under fault injection most timeouts are transient and a backoff
        retry saves the reflash.  The snapshot rung is deliberately NOT
        consulted here: a retry leaves the surviving target state
        untouched, and a snapshot write-back would rewind it — the two
        restore modes must recover timeouts identically."""
        self._escalate(start="retry", reason="link-timeout")

    def _escalate(self, start: str, reason: str,
                  skip: tuple = ()) -> None:
        """Run the recovery ladder; only ever returns with a verified
        live board (breakpoints re-armed, watchdog reset, UART drained).
        Raises :class:`RecoveryExhausted` when the board is dead."""
        with self.obs.span("restore"):
            self.ladder.recover(start=start, reason=reason, skip=skip)
        self._maybe_recapture()

    def _maybe_recapture(self) -> None:
        """Re-capture after a recovery that left the snapshot invalid
        (reflash moved the flash epoch, or the verify probe struck it
        out): the board is verified alive and freshly booted, which is
        exactly the state a snapshot must be taken from."""
        if self.snapshot is None or self.snapshot.ready:
            return
        with self.obs.span("restore"):
            self.snapshot.capture()
