"""End-of-run reporting: assemble run artifacts and render them.

A run directory (``runs/<id>/`` or whatever ``--trace-dir`` named) holds

* ``events.jsonl`` — streamed live by the run's :class:`JsonlSink`,
* ``metrics.json`` — metrics + phase aggregates + the ``FuzzStats``
  series, written here at the end of the run,
* ``report.txt`` — the human rendering: phase-time breakdown and
  per-DDI-command latency histogram summaries,
* ``profile.json`` — the cycle-budget phase tree
  (:mod:`repro.obs.profile`),
* ``timeseries.jsonl`` — the deterministic epoch series, streamed live
  by an attached :class:`repro.obs.timeseries.TimeSeriesSampler`,
* ``metrics.prom`` + ``report.html`` — the rendered exports
  (:mod:`repro.obs.render`).

``repro report <run-dir>`` re-renders ``metrics.json`` at any later
time, so artifacts are the interchange format, not the console text.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Optional

from repro.bench.report import render_table
from repro.db.io import atomic_write_json, atomic_write_text
from repro.fuzz.stats import FuzzStats
from repro.obs import FlightRecorder, JsonlSink, Observability
from repro.obs.profile import (build_profile, profile_table_rows,
                               run_total_cycles, write_profile)
from repro.obs.render import HTML_FILE, PROM_FILE, render_html, render_prom
from repro.obs.timeseries import (TIMESERIES_FILE, TimeSeriesSampler,
                                  load_timeseries)

METRICS_FILE = "metrics.json"
EVENTS_FILE = "events.jsonl"
REPORT_FILE = "report.txt"

#: Schema version stamped into ``metrics.json`` as ``schema_version``
#: (``"<major>.<minor>"``).  Bump the major on any change an existing
#: consumer would mis-parse; :func:`load_run_data` rejects majors this
#: build does not read.
SCHEMA_VERSION = "1.0"
SCHEMA_MAJOR = 1

# Loop phases in pipeline order (the report keeps this order).
PHASE_ORDER = ("generate", "mutate", "flash-program", "continue",
               "drain-coverage", "triage", "restore", "sync")


class SchemaVersionError(ValueError):
    """A run artifact's major schema version is not readable here."""


def open_trace(run_dir: str, run_id: str, sample_interval: int,
               flight: bool = True) -> Observability:
    """An observability bundle that traces into ``run_dir``.

    Events stream to ``events.jsonl`` and the time series (one row per
    ``sample_interval`` virtual cycles) to ``timeseries.jsonl``; with
    ``flight`` a flight recorder dumps crashes next to them.
    """
    os.makedirs(run_dir, exist_ok=True)
    obs = Observability(run_id=run_id)
    obs.attach(JsonlSink(os.path.join(run_dir, EVENTS_FILE)))
    obs.sampler = TimeSeriesSampler(
        sample_interval, path=os.path.join(run_dir, TIMESERIES_FILE))
    if flight:
        obs.attach_flight(FlightRecorder(run_dir))
    return obs


def collect_run_data(obs, stats: Optional[FuzzStats] = None,
                     meta: Optional[Dict[str, object]] = None) -> dict:
    """Bundle one run's observability state into a JSON-friendly dict."""
    if stats is not None and obs.enabled:
        # Stamp the cycle-budget attribution ratio into the metrics
        # themselves before snapshotting, so it travels with the run.
        stats_data = stats.to_dict()
        total = run_total_cycles(stats_data)
        attributed = sum(int(entry.get("cycles", 0)) for entry
                         in obs.tracer.snapshot().values())
        if total > 0:
            obs.gauge("profile.attribution").set(
                round(min(attributed, total) / total, 6))
    data = obs.snapshot()
    data["schema_version"] = SCHEMA_VERSION
    data["meta"] = dict(meta or {})
    if stats is not None:
        data["stats"] = stats.to_dict()
    return data


def collect_campaign_data(obs, campaign_stats,
                          meta: Optional[Dict[str, object]] = None) -> dict:
    """Bundle a multi-board campaign into a JSON-friendly dict.

    ``campaign_stats`` is a :class:`repro.fuzz.stats.CampaignStats`;
    its per-worker stats nest under ``campaign.workers`` so
    ``render_report`` can draw the per-board table next to the merged
    headline numbers.
    """
    data = obs.snapshot()
    data["schema_version"] = SCHEMA_VERSION
    data["meta"] = dict(meta or {})
    data["campaign"] = campaign_stats.to_dict()
    return data


def write_run_artifacts(run_dir: str, data: dict) -> str:
    """Write the full artifact set into ``run_dir``.

    ``metrics.json`` + ``report.txt`` as always, plus ``profile.json``
    (built from the payload unless the caller injected an aggregated
    one under ``data["profile"]``), ``metrics.prom`` for textfile
    scrapers, and the self-contained ``report.html`` timeline (which
    picks up ``timeseries.jsonl`` from the run directory if a sampler
    streamed one there).
    """
    os.makedirs(run_dir, exist_ok=True)
    profile = data.get("profile") or build_profile(data)
    data = dict(data)
    data.pop("profile", None)
    # Every artifact goes through the atomic write helpers: a reader
    # (or a crash) can never observe a half-written report set.
    atomic_write_json(os.path.join(run_dir, METRICS_FILE), data)
    write_profile(run_dir, profile)
    atomic_write_text(os.path.join(run_dir, REPORT_FILE),
                      render_report(data, profile=profile),
                      ensure_newline=True)
    atomic_write_text(os.path.join(run_dir, PROM_FILE),
                      render_prom({**data, "profile": profile}))
    ts_path = os.path.join(run_dir, TIMESERIES_FILE)
    timeseries = load_timeseries(ts_path) if os.path.exists(ts_path) \
        else None
    atomic_write_text(os.path.join(run_dir, HTML_FILE),
                      render_html({**data, "profile": profile},
                                  timeseries=timeseries))
    return run_dir


def schema_major(data: dict) -> int:
    """Major component of a payload's ``schema_version`` (pre-schema
    artifacts read as major 1)."""
    version = str(data.get("schema_version", SCHEMA_VERSION))
    try:
        return int(version.split(".", 1)[0])
    except ValueError:
        raise SchemaVersionError(
            f"malformed schema_version {version!r}") from None


def load_run_data(run_dir: str) -> dict:
    """Read a run directory's ``metrics.json``; rejects majors this
    build cannot parse with a clear :class:`SchemaVersionError`."""
    with open(os.path.join(run_dir, METRICS_FILE), encoding="utf-8") as fh:
        data = json.load(fh)
    major = schema_major(data)
    if major != SCHEMA_MAJOR:
        raise SchemaVersionError(
            f"{run_dir}: metrics.json has schema major {major}; this "
            f"build reads major {SCHEMA_MAJOR} — re-render with the "
            f"toolchain that produced the run")
    return data


def count_events(run_dir: str) -> int:
    """Number of lines in the run's ``events.jsonl`` (0 if absent)."""
    path = os.path.join(run_dir, EVENTS_FILE)
    if not os.path.exists(path):
        return 0
    with open(path, encoding="utf-8") as fh:
        return sum(1 for _ in fh)


def _ordered_phases(phases: Dict[str, dict]):
    known = [name for name in PHASE_ORDER if name in phases]
    extra = sorted(name for name in phases if name not in PHASE_ORDER)
    return known + extra


def render_report(data: dict, profile: Optional[dict] = None) -> str:
    """Human rendering of one run's ``metrics.json`` payload."""
    sections = []
    meta = data.get("meta", {})
    run_id = data.get("run_id", "") or "(unnamed run)"
    header = [f"run       : {run_id}"]
    for key in sorted(meta):
        header.append(f"{key:10}: {meta[key]}")
    header.append(f"events    : {data.get('events_emitted', 0)}")
    sections.append("\n".join(header))

    stats_data = data.get("stats")
    if stats_data:
        stats = FuzzStats.from_dict(stats_data)
        sections.append("summary   : " + stats.summary())
        if stats.reachable_edges > 0:
            sections.append(
                f"saturation: {stats.final_edges()} of "
                f"{stats.reachable_edges} statically-reachable edges "
                f"({stats.coverage_saturation():.1%})")
        if stats.recoveries or stats.recovery_failures:
            sections.append(
                f"recovery  : {stats.recoveries} ladder climbs, "
                f"{stats.reattaches} reattaches, "
                f"{stats.recovery_failures} exhausted")

    campaign_data = data.get("campaign")
    if campaign_data:
        from repro.fuzz.stats import CampaignStats
        campaign = CampaignStats.from_dict(campaign_data)
        sections.append("campaign  : " + campaign.summary())
        rows = []
        for index, worker in enumerate(campaign.workers):
            rows.append([f"worker-{index}", worker.programs_executed,
                         worker.final_edges(), worker.unique_crashes,
                         worker.imported_seeds, worker.restorations])
        rows.append(["merged", campaign.total_programs(),
                     campaign.merged_edges,
                     campaign.merged_unique_crashes,
                     campaign.seeds_imported, "-"])
        sections.append(render_table(
            "Campaign workers (merged frontier across boards)",
            ["board", "execs", "edges", "crashes", "imports",
             "restores"], rows))

    analysis = data.get("analysis")
    if analysis:
        lines = ["Static analysis"]
        codes = analysis.get("codes", {})
        count = analysis.get("diagnostics", 0)
        if codes:
            rendered = ", ".join(f"{code} x{codes[code]}"
                                 for code in sorted(codes))
            lines.append(f"  diagnostics: {count} ({rendered})")
        else:
            lines.append("  diagnostics: none")
        universe = analysis.get("summary", {}).get("reach.edge_universe")
        if universe is not None:
            lines.append(f"  {'reach.edge_universe':22}: {universe}")
        sections.append("\n".join(lines))

    phases = data.get("phases", {})
    if phases:
        total = sum(entry["cycles"] for entry in phases.values()) or 1
        rows = []
        for name in _ordered_phases(phases):
            entry = phases[name]
            rows.append([name, entry["count"], entry["cycles"],
                         f"{100.0 * entry['cycles'] / total:.1f}%",
                         f"{1000.0 * entry['wall_seconds']:.1f}"])
        sections.append(render_table(
            "Phase-time breakdown (virtual cycles)",
            ["phase", "spans", "cycles", "share", "wall ms"], rows))

    if profile is None and (data.get("phases") or data.get("stats")):
        profile = build_profile(data)
    if profile and profile.get("total_cycles"):
        rows = profile_table_rows(profile)
        sections.append(render_table(
            "Cycle budget (phase tree, % of spent cycles)",
            ["phase", "spans", "cycles", "share"], rows))
        sections.append(
            f"attributed: {profile['attributed_cycles']} of "
            f"{profile['total_cycles']} spent cycles "
            f"({100.0 * profile['attribution']:.1f}%)")

    histograms = data.get("metrics", {}).get("histograms", {})
    ddi = {name: snap for name, snap in histograms.items()
           if name.startswith("ddi.cmd.")}
    if ddi:
        rows = []
        for name in sorted(ddi):
            snap = ddi[name]
            count = snap.get("count", 0)
            mean = snap.get("mean", 0.0)
            peak = snap.get("max") or 0
            rows.append([name[len("ddi.cmd."):], count,
                         f"{mean:.0f}", int(peak)])
        sections.append(render_table(
            "DDI command latency (cycles per command)",
            ["command", "count", "mean", "max"], rows))
    other = {name: snap for name, snap in histograms.items()
             if name not in ddi}
    if other:
        rows = [[name, snap.get("count", 0),
                 f"{snap.get('mean', 0.0):.0f}",
                 int(snap.get("max") or 0)]
                for name, snap in sorted(other.items())]
        sections.append(render_table(
            "Other histograms", ["name", "count", "mean", "max"], rows))

    counters = data.get("metrics", {}).get("counters", {})
    chaos = {name: value for name, value in counters.items()
             if name.startswith(("recovery.", "chaos."))}
    if chaos:
        rows = [[name, value] for name, value in sorted(chaos.items())]
        sections.append(render_table(
            "Recovery ladder & fault injection",
            ["counter", "value"], rows))
    rest = {name: value for name, value in counters.items()
            if name not in chaos}
    if rest:
        rows = [[name, value] for name, value in sorted(rest.items())]
        sections.append(render_table("Counters", ["counter", "value"], rows))

    return "\n\n".join(sections)
