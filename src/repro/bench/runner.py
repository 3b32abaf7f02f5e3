"""Run one fuzzer on one target, repeatedly, and summarise.

Every engine (EOF, EOF-nf, Tardis, GDBFuzz, SHIFT, Gustave) is built
fresh per seed — new board, new image, new RNG — so seeds are genuinely
independent repetitions, as in the paper's 5-run protocol.  Campaign
workers are built the same way, but by the worker itself:
:func:`make_campaign` hands the orchestrator a
:class:`~repro.farm.WorkerSpec` template, and each worker builds its
engine with :func:`repro.farm.procworker.build_engine`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from repro.baselines import (
    GdbFuzzEngine,
    GustaveEngine,
    ShiftEngine,
    TardisEngine,
    make_eof_nf_engine,
)
from repro.errors import RecoveryExhausted
from repro.firmware.builder import BuildInfo, build_firmware
from repro.fuzz.engine import EngineOptions, EofEngine, FuzzResult
from repro.fuzz.stats import series_edges_at
from repro.fuzz.targets import TargetConfig
from repro.obs import Observability, RingBufferSink
from repro.spec.llmgen import generate_validated_specs


@dataclass
class SeedSummary:
    """Aggregated results of one fuzzer over several seeds."""

    fuzzer: str
    target: str
    edges: List[int] = field(default_factory=list)
    module_edges: List[int] = field(default_factory=list)
    bugs: List[int] = field(default_factory=list)
    execs: List[int] = field(default_factory=list)
    curves: List[List[tuple]] = field(default_factory=list)
    results: List[FuzzResult] = field(default_factory=list)
    # Per-seed debug-link accounting (repro.link).
    link_transactions: List[int] = field(default_factory=list)
    link_bytes: List[int] = field(default_factory=list)
    # Per-seed observability snapshots (run_seeds(observe=True) only).
    obs_snapshots: List[dict] = field(default_factory=list)
    # Per-seed cycle-budget profiles (observe=True only).
    profiles: List[dict] = field(default_factory=list)
    # Per-seed in-memory time series (observe=True + sample_interval).
    timeseries: List[List[dict]] = field(default_factory=list)

    @property
    def mean_edges(self) -> float:
        """Mean branch coverage over seeds."""
        return sum(self.edges) / max(len(self.edges), 1)

    @property
    def mean_link_transactions(self) -> float:
        """Mean debug-link transactions per seed."""
        return sum(self.link_transactions) / max(len(self.link_transactions), 1)

    @property
    def mean_link_bytes(self) -> float:
        """Mean debug-link frame bytes per seed."""
        return sum(self.link_bytes) / max(len(self.link_bytes), 1)

    @property
    def mean_transactions_per_program(self) -> float:
        """Link transactions per attempted program (the §4.5 lever)."""
        programs = sum(r.stats.programs_executed + r.stats.rejected_programs
                       for r in self.results)
        return sum(self.link_transactions) / max(programs, 1)

    @property
    def mean_module_edges(self) -> float:
        """Mean module-confined coverage over seeds (Table 4 cells)."""
        return sum(self.module_edges) / max(len(self.module_edges), 1)

    @property
    def mean_saturation(self) -> float:
        """Mean coverage saturation (edges seen / statically-reachable
        edge universe) over seeds whose engine computed a universe; 0.0
        when none did (buffer-based baselines skip the analysis)."""
        values = [r.stats.coverage_saturation() for r in self.results
                  if r.stats.reachable_edges > 0]
        return sum(values) / max(len(values), 1)

    def curve_band(self, timestamps: Sequence[int]):
        """(mean, min, max) coverage at each timestamp across seeds."""
        band = []
        for when in timestamps:
            values = [self._at(curve, when) for curve in self.curves]
            band.append((sum(values) / max(len(values), 1),
                         min(values, default=0), max(values, default=0)))
        return band

    @staticmethod
    def _at(curve, when: int) -> int:
        return series_edges_at(curve, when)

    def phase_breakdown(self) -> dict:
        """Mean virtual cycles per loop phase across observed seeds.

        Empty unless the summary was produced with ``observe=True``;
        this is what throughput-breakdown bench tables render.
        """
        totals: dict = {}
        for snapshot in self.obs_snapshots:
            for phase, entry in snapshot.get("phases", {}).items():
                totals[phase] = totals.get(phase, 0) + entry["cycles"]
        runs = max(len(self.obs_snapshots), 1)
        return {phase: cycles / runs for phase, cycles in totals.items()}


def edges_in_module(result: FuzzResult, build: BuildInfo,
                    module: str) -> int:
    """Ground-truth edge count confined to one module (Table 4 columns)."""
    count = 0
    for edge in result.coverage.edges:
        symbol = build.site_table.symbol_of_site(edge & 0xFFFF)
        if symbol is None:
            continue
        if build.site_table.for_symbol(symbol).module == module:
            count += 1
    return count


def _apply_chaos(engine, chaos: str, chaos_seed: Optional[int]):
    """Point an engine's options at a fault-injection profile.

    Works on anything built around the EOF loop: bare :class:`EofEngine`
    or wrappers that expose the core at ``.engine`` (Tardis).
    """
    core = engine.engine if hasattr(engine, "engine") else engine
    options = getattr(core, "options", None)
    if not isinstance(options, EngineOptions):
        raise ValueError(
            f"engine {type(engine).__name__} does not support fault "
            f"injection (no EngineOptions)")
    options.chaos_profile = chaos
    options.chaos_seed = chaos_seed
    return engine


def make_engine(fuzzer: str, build: BuildInfo, seed: int,
                budget_cycles: int, entry_api: Optional[str] = None,
                restrict_modules: Optional[Sequence[str]] = None,
                obs: Optional[Observability] = None,
                chaos: Optional[str] = None,
                chaos_seed: Optional[int] = None,
                snapshots: bool = True,
                restore_every: int = 0):
    """Construct a named engine for a built target.

    ``obs`` attaches an observability bundle to the engines built on the
    EOF loop (buffer-based baselines ignore it).  ``chaos`` names a
    :data:`repro.chaos.PROFILES` fault-injection profile for engines
    built on the EOF loop; the buffer-based baselines reject it.
    ``snapshots=False`` pins the plain EOF engine to the reflash-only
    recovery ladder, and ``restore_every=N`` restores the pristine
    post-boot state every N programs (the snapshot throughput bench's
    workload).
    """
    engine = None
    if fuzzer in ("eof", "eof-nf", "tardis"):
        spec = generate_validated_specs(build)
        if restrict_modules:
            spec = spec.restricted_to(
                [a.name for a in build.api_defs
                 if a.module in set(restrict_modules)])
        if fuzzer == "eof":
            engine = EofEngine(build, spec, EngineOptions(
                seed=seed, budget_cycles=budget_cycles,
                snapshots=snapshots, restore_every=restore_every), obs=obs)
        elif fuzzer == "eof-nf":
            engine = make_eof_nf_engine(build, spec, seed=seed,
                                        budget_cycles=budget_cycles, obs=obs)
        else:
            engine = TardisEngine(build, spec, seed=seed,
                                  budget_cycles=budget_cycles, obs=obs)
    elif fuzzer == "gdbfuzz":
        engine = GdbFuzzEngine(build, entry_api, seed=seed,
                               budget_cycles=budget_cycles)
    elif fuzzer == "shift":
        engine = ShiftEngine(build, entry_api, seed=seed,
                             budget_cycles=budget_cycles)
    elif fuzzer == "gustave":
        engine = GustaveEngine(build, seed=seed, budget_cycles=budget_cycles)
    if engine is None:
        raise ValueError(f"unknown fuzzer {fuzzer!r}")
    if chaos is not None:
        _apply_chaos(engine, chaos, chaos_seed)
    return engine


def run_engine(fuzzer: str, target: TargetConfig, seed: int,
               budget_cycles: int, entry_api: Optional[str] = None,
               restrict_modules: Optional[Sequence[str]] = None,
               module: Optional[str] = None,
               obs: Optional[Observability] = None,
               chaos: Optional[str] = None,
               chaos_seed: Optional[int] = None,
               snapshots: bool = True,
               restore_every: int = 0):
    """One seed of one fuzzer on one target; returns (result, build)."""
    build = build_firmware(target.build_config())
    engine = make_engine(fuzzer, build, seed, budget_cycles,
                         entry_api=entry_api,
                         restrict_modules=restrict_modules, obs=obs,
                         chaos=chaos, chaos_seed=chaos_seed,
                         snapshots=snapshots,
                         restore_every=restore_every)
    result = engine.run()
    return result, build


def run_seeds(fuzzer: str, target: TargetConfig, seeds: int,
              budget_cycles: int, entry_api: Optional[str] = None,
              restrict_modules: Optional[Sequence[str]] = None,
              module: Optional[str] = None,
              observe: bool = False,
              chaos: Optional[str] = None,
              snapshots: bool = True,
              restore_every: int = 0,
              sample_interval: int = 0) -> SeedSummary:
    """The paper's repeated-runs protocol.

    ``observe=True`` attaches a fresh in-memory observability bundle to
    each seed and stores its snapshot plus cycle-budget profile, so
    bench tables can report where the budget's cycles went (see
    :meth:`SeedSummary.phase_breakdown` / :attr:`profiles`).
    ``sample_interval`` additionally rides an in-memory
    :class:`~repro.obs.timeseries.TimeSeriesSampler` on each seed (rows
    land in :attr:`SeedSummary.timeseries`).  ``chaos`` runs every seed
    under that fault-injection profile (the fault streams reseed per
    fuzzing seed, so repetitions stay independent).
    """
    from repro.obs.profile import build_profile
    from repro.obs.timeseries import TimeSeriesSampler

    summary = SeedSummary(fuzzer=fuzzer, target=target.name)
    for seed in range(1, seeds + 1):
        obs = None
        if observe:
            obs = Observability(
                run_id=f"{fuzzer}-{target.name}-seed{seed}")
            obs.attach(RingBufferSink())
            if sample_interval > 0:
                obs.sampler = TimeSeriesSampler(sample_interval)
        result, build = run_engine(fuzzer, target, seed, budget_cycles,
                                   entry_api=entry_api,
                                   restrict_modules=restrict_modules,
                                   obs=obs, chaos=chaos, chaos_seed=seed,
                                   snapshots=snapshots,
                                   restore_every=restore_every)
        summary.edges.append(result.edges)
        summary.bugs.append(len(result.crash_db))
        summary.execs.append(result.stats.programs_executed)
        summary.curves.append(list(result.stats.series))
        summary.results.append(result)
        summary.link_transactions.append(result.stats.link_transactions)
        summary.link_bytes.append(result.stats.link_bytes)
        if obs is not None:
            snapshot = obs.snapshot()
            summary.obs_snapshots.append(snapshot)
            summary.profiles.append(build_profile(
                {**snapshot, "stats": result.stats.to_dict()}))
            if obs.sampler is not None:
                summary.timeseries.append(list(obs.sampler.rows))
        if module is not None:
            summary.module_edges.append(
                edges_in_module(result, build, module))
    return summary


def make_campaign(target: TargetConfig, workers: int,
                  total_budget_cycles: int, campaign_seed: int = 1,
                  sync_interval: int = 400_000, import_cap: int = 2,
                  import_min_novelty: int = 2,
                  obs: Optional[Observability] = None,
                  epoch_hook: Optional[Callable[[dict], None]] = None,
                  state_dir: Optional[str] = None,
                  resume: bool = False,
                  warm_start_dir: Optional[str] = None,
                  snapshots: bool = True,
                  backend: str = "inline",
                  trace_dir: Optional[str] = None,
                  sample_interval: int = 0):
    """Build (but do not run) one multi-board campaign orchestrator.

    Splitting construction from :meth:`~repro.farm.CampaignOrchestrator.run`
    lets callers wire signal handlers at the orchestrator before the
    first epoch (the CLI's graceful-interrupt path).  ``state_dir``
    attaches a :class:`repro.db.CampaignStore` (created on first use);
    with ``resume`` the campaign fast-forwards deterministically to the
    store's last committed epoch and continues.  ``warm_start_dir``
    pre-seeds the shared corpus from *another* campaign's store.
    ``backend`` picks where workers execute (``inline`` on the
    coordinator thread, or ``process``).  Under either backend,
    ``trace_dir`` makes every worker write its own artifact set into
    ``<trace_dir>/worker-<i>/``, its time series sampled every
    ``sample_interval`` cycles.
    """
    from repro.farm import (CampaignOptions, CampaignOrchestrator,
                            WorkerSpec)
    from repro.farm.orchestrator import campaign_config

    options = CampaignOptions(
        campaign_seed=campaign_seed, workers=workers,
        sync_interval=sync_interval,
        total_budget_cycles=total_budget_cycles,
        import_cap=import_cap,
        import_min_novelty=import_min_novelty,
        backend=backend)
    worker_spec = WorkerSpec(target=target.name, snapshots=snapshots,
                             trace_dir=trace_dir or "",
                             sample_interval=sample_interval)
    store = None
    if state_dir is not None:
        from repro.db import CampaignStore
        store = CampaignStore(state_dir, obs=obs)
        store.open(campaign_config(options, target.name), resume=resume)
    warm_entries = None
    if warm_start_dir is not None:
        from repro.db import CampaignStore
        warm_entries = CampaignStore.read(
            warm_start_dir, obs=obs).corpus_entries()
    orchestrator = CampaignOrchestrator(worker_spec, options, obs=obs,
                                        store=store,
                                        warm_entries=warm_entries)
    orchestrator.epoch_hook = epoch_hook
    return orchestrator


def run_campaign(target: TargetConfig, workers: int,
                 total_budget_cycles: int, **kwargs):
    """One parallel multi-board campaign of EOF on one target.

    Spins up ``workers`` engines (fresh board + image + derived RNG
    stream each) under a shared corpus/coverage/crash-triage state and
    returns the :class:`repro.farm.CampaignResult`.  ``sync_interval``
    is in virtual cycles per worker; 0 disables syncing, which makes
    the campaign exactly N independent single-board runs whose stats
    are merged at the end — the scaling baseline the benchmark
    compares against.  ``epoch_hook`` is called on the coordinator
    thread at every sync barrier with the epoch summary (the
    ``--dashboard`` feed).  See :func:`make_campaign` for the
    per-worker traces (``trace_dir``) and the persistence knobs
    (``state_dir``, ``resume``, ``warm_start_dir``).
    """
    return make_campaign(target, workers, total_budget_cycles,
                         **kwargs).run()


@dataclass
class ChaosOutcome:
    """One chaos profile's survival record over several seeds."""

    profile: str
    edges: List[int] = field(default_factory=list)
    recoveries: List[int] = field(default_factory=list)
    aborted: int = 0  # seeds that ended in RecoveryExhausted

    @property
    def mean_edges(self) -> float:
        """Mean coverage over the seeds that produced a result."""
        return sum(self.edges) / max(len(self.edges), 1)

    @property
    def mean_recoveries(self) -> float:
        """Mean successful ladder climbs per seed."""
        return sum(self.recoveries) / max(len(self.recoveries), 1)


def run_chaos_matrix(target: TargetConfig, profiles: Sequence[str],
                     seeds: int, budget_cycles: int,
                     fuzzer: str = "eof") -> List[ChaosOutcome]:
    """Edges-under-chaos bench: one EOF run per (profile, seed).

    A seed that exhausts the recovery ladder counts as ``aborted`` —
    its partial stats still contribute edge/recovery numbers, because a
    fuzzer that quarantines a dead board after real work is not the
    same as one that produced nothing.
    """
    outcomes = []
    for profile in profiles:
        outcome = ChaosOutcome(profile=profile)
        for seed in range(1, seeds + 1):
            build = build_firmware(target.build_config())
            engine = make_engine(fuzzer, build, seed, budget_cycles,
                                 chaos=profile, chaos_seed=seed)
            core = engine.engine if hasattr(engine, "engine") else engine
            try:
                result = engine.run()
            except RecoveryExhausted:
                outcome.aborted += 1
                outcome.edges.append(core.coverage.edge_count)
                outcome.recoveries.append(core.stats.recoveries)
            else:
                outcome.edges.append(result.edges)
                outcome.recoveries.append(result.stats.recoveries)
        outcomes.append(outcome)
    return outcomes
