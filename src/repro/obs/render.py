"""Renderers for recorded telemetry: HTML timeline, Prometheus textfile,
and the live ANSI campaign dashboard.

Everything here is dependency-free string assembly over the JSON
artifacts (``metrics.json`` + ``timeseries.jsonl`` + ``profile.json``):

* :func:`render_html` — a single self-contained HTML page with inline
  SVG: the coverage-growth curve, a stacked per-phase cycle area, and
  one coverage lane per farm worker.
* :func:`render_prom` — a Prometheus text-exposition snapshot
  (``metrics.prom``) for external scrapers / textfile collectors.
* :func:`render_dashboard` — the periodic ANSI status table
  ``eof-fuzz campaign --dashboard`` prints at every epoch barrier.
"""

from __future__ import annotations

import html
import json
import re
from typing import Dict, List, Optional, Sequence

from repro.bench.report import render_table

#: File name of the Prometheus textfile artifact.
PROM_FILE = "metrics.prom"

#: File name of the HTML report artifact.
HTML_FILE = "report.html"

_PROM_NAME = re.compile(r"[^a-zA-Z0-9_]")

# Muted categorical palette (ok on white and dark terminals' browsers).
_PALETTE = ("#4878a8", "#e1a13c", "#589a64", "#b55c5c", "#8a6fb0",
            "#5ba3b0", "#a8824f", "#7a7a7a")


def _prom_name(name: str) -> str:
    return "eof_" + _PROM_NAME.sub("_", name)


def render_prom(data: Dict[str, object]) -> str:
    """Prometheus text exposition of one run's metrics + stats."""
    lines: List[str] = []
    run_id = str(data.get("run_id", ""))
    lines.append(f'eof_run_info{{run_id="{run_id}"}} 1')
    metrics = data.get("metrics", {}) or {}
    for name, value in sorted((metrics.get("counters") or {}).items()):
        prom = _prom_name(name) + "_total"
        lines.append(f"# TYPE {prom} counter")
        lines.append(f"{prom} {value}")
    for name, value in sorted((metrics.get("gauges") or {}).items()):
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} gauge")
        lines.append(f"{prom} {value}")
    for name, snap in sorted((metrics.get("histograms") or {}).items()):
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} histogram")
        cumulative = 0
        buckets = snap.get("buckets", [])
        counts = snap.get("counts", [])
        for bound, count in zip(buckets, counts):
            cumulative += count
            lines.append(f'{prom}_bucket{{le="{bound}"}} {cumulative}')
        lines.append(f'{prom}_bucket{{le="+Inf"}} '
                     f'{snap.get("count", 0)}')
        lines.append(f'{prom}_sum {snap.get("sum", 0)}')
        lines.append(f'{prom}_count {snap.get("count", 0)}')
    stats = data.get("stats") or {}
    for name, value in sorted(stats.items()):
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            prom = _prom_name(f"stats.{name}")
            lines.append(f"# TYPE {prom} gauge")
            lines.append(f"{prom} {value}")
    profile = data.get("profile") or {}
    for phase in profile.get("phases", []):
        prom = _prom_name(f"profile.cycles.{phase['name']}")
        lines.append(f"# TYPE {prom} gauge")
        lines.append(f"{prom} {phase['cycles']}")
    return "\n".join(lines) + "\n"


# -- SVG building blocks -----------------------------------------------------

_W, _H, _PAD = 640, 180, 30


def _scale(points: Sequence[tuple], width=_W, height=_H,
           pad=_PAD) -> List[tuple]:
    """Scale (x, y) data points into SVG coordinates."""
    if not points:
        return []
    max_x = max(x for x, _ in points) or 1
    max_y = max(y for _, y in points) or 1
    return [(pad + (width - 2 * pad) * x / max_x,
             height - pad - (height - 2 * pad) * y / max_y)
            for x, y in points]


def _polyline(points: Sequence[tuple], color: str,
              width: float = 1.5) -> str:
    coords = " ".join(f"{x:.1f},{y:.1f}" for x, y in points)
    return (f'<polyline fill="none" stroke="{color}" '
            f'stroke-width="{width}" points="{coords}"/>')


def _svg(body: str, width=_W, height=_H) -> str:
    return (f'<svg viewBox="0 0 {width} {height}" width="{width}" '
            f'height="{height}" xmlns="http://www.w3.org/2000/svg">'
            f'<rect width="{width}" height="{height}" fill="#fdfdfb" '
            f'stroke="#ddd"/>{body}</svg>')


def _coverage_svg(series: Sequence[Sequence[int]]) -> str:
    points = [(int(cycles), int(edges)) for cycles, edges in series]
    if not points:
        return "<p>(no coverage series recorded)</p>"
    peak = max(edges for _, edges in points)
    scaled = _scale(points)
    label = (f'<text x="{_PAD}" y="{_PAD - 8}" font-size="11" '
             f'fill="#555">edges over virtual cycles '
             f'(peak {peak})</text>')
    return _svg(_polyline(scaled, _PALETTE[0]) + label)


def _phase_area_svg(rows: Sequence[Dict[str, object]]) -> str:
    """Stacked per-phase cycle areas from cumulative timeseries rows."""
    rows = [row for row in rows if row.get("phases")]
    if len(rows) < 2:
        return "<p>(no per-epoch phase samples recorded)</p>"
    names = sorted({name for row in rows for name in row["phases"]})
    xs = [int(row["cycles"]) for row in rows]
    # Per-epoch deltas per phase, stacked bottom-up.
    deltas = {name: [] for name in names}
    previous = {name: 0 for name in names}
    for row in rows:
        for name in names:
            value = int(row["phases"].get(name, previous[name]))
            deltas[name].append(max(value - previous[name], 0))
            previous[name] = max(value, previous[name])
    totals = [sum(deltas[name][i] for name in names)
              for i in range(len(rows))]
    peak = max(totals) or 1
    max_x = max(xs) or 1
    body = []
    base = [0.0] * len(rows)
    for index, name in enumerate(names):
        top = [base[i] + deltas[name][i] for i in range(len(rows))]
        path = []
        for i, x in enumerate(xs):
            sx = _PAD + (_W - 2 * _PAD) * x / max_x
            sy = _H - _PAD - (_H - 2 * _PAD) * top[i] / peak
            path.append(f"{'M' if not path else 'L'}{sx:.1f},{sy:.1f}")
        for i in range(len(rows) - 1, -1, -1):
            sx = _PAD + (_W - 2 * _PAD) * xs[i] / max_x
            sy = _H - _PAD - (_H - 2 * _PAD) * base[i] / peak
            path.append(f"L{sx:.1f},{sy:.1f}")
        color = _PALETTE[index % len(_PALETTE)]
        body.append(f'<path d="{" ".join(path)} Z" fill="{color}" '
                    f'fill-opacity="0.75" stroke="none">'
                    f'<title>{html.escape(name)}</title></path>')
        base = top
    legend = []
    for index, name in enumerate(names):
        color = _PALETTE[index % len(_PALETTE)]
        x = _PAD + index * 90
        legend.append(f'<rect x="{x}" y="6" width="8" height="8" '
                      f'fill="{color}"/>'
                      f'<text x="{x + 11}" y="14" font-size="10" '
                      f'fill="#444">{html.escape(name)}</text>')
    return _svg("".join(body) + "".join(legend))


def _lanes_svg(worker_series: Sequence[Sequence[Dict[str, object]]]) -> str:
    """One coverage lane per farm worker, shared x-axis."""
    lane_h = 46
    height = _PAD + lane_h * len(worker_series) + 10
    max_x = max((int(row["cycles"]) for rows in worker_series
                 for row in rows), default=1) or 1
    peak = max((int(row.get("edges", 0)) for rows in worker_series
                for row in rows), default=1) or 1
    body = []
    for index, rows in enumerate(worker_series):
        top = _PAD + index * lane_h
        color = _PALETTE[index % len(_PALETTE)]
        points = []
        for row in rows:
            x = _PAD + (_W - 2 * _PAD) * int(row["cycles"]) / max_x
            y = top + (lane_h - 10) * \
                (1 - int(row.get("edges", 0)) / peak)
            points.append((x, y))
        if points:
            body.append(_polyline(points, color))
        final = int(rows[-1].get("edges", 0)) if rows else 0
        body.append(f'<text x="4" y="{top + 12}" font-size="10" '
                    f'fill="#444">w{index} ({final})</text>')
        body.append(f'<line x1="{_PAD}" y1="{top + lane_h - 8}" '
                    f'x2="{_W - _PAD}" y2="{top + lane_h - 8}" '
                    f'stroke="#eee"/>')
    return _svg("".join(body), height=height)


def _html_table(title: str, columns: Sequence[str],
                rows: Sequence[Sequence[object]]) -> str:
    head = "".join(f"<th>{html.escape(str(c))}</th>" for c in columns)
    body = "".join(
        "<tr>" + "".join(f"<td>{html.escape(str(cell))}</td>"
                         for cell in row) + "</tr>"
        for row in rows)
    return (f"<h2>{html.escape(title)}</h2>"
            f"<table><thead><tr>{head}</tr></thead>"
            f"<tbody>{body}</tbody></table>")


def render_html(data: Dict[str, object],
                timeseries: Optional[List[Dict[str, object]]] = None,
                worker_series: Optional[
                    List[List[Dict[str, object]]]] = None) -> str:
    """Self-contained HTML timeline of one run or campaign."""
    from repro.obs.profile import build_profile, profile_table_rows

    run_id = str(data.get("run_id", "") or "(unnamed run)")
    meta = data.get("meta", {}) or {}
    parts: List[str] = []
    parts.append(
        "<!DOCTYPE html><html><head><meta charset='utf-8'>"
        f"<title>eof-fuzz · {html.escape(run_id)}</title><style>"
        "body{font:14px/1.5 system-ui,sans-serif;margin:24px;"
        "color:#222;max-width:720px}"
        "h1{font-size:20px}h2{font-size:15px;margin-top:28px}"
        "table{border-collapse:collapse;font-size:12.5px}"
        "td,th{border:1px solid #ddd;padding:3px 8px;text-align:left}"
        "th{background:#f4f4f0}code{background:#f4f4f0;padding:0 3px}"
        ".meta{color:#666;font-size:12.5px}"
        "</style></head><body>")
    parts.append(f"<h1>eof-fuzz run · {html.escape(run_id)}</h1>")
    meta_bits = [f"{html.escape(str(k))}=<code>{html.escape(str(v))}"
                 f"</code>" for k, v in sorted(meta.items())]
    if meta_bits:
        parts.append(f"<p class='meta'>{' · '.join(meta_bits)}</p>")

    stats = data.get("stats") or {}
    series = stats.get("series") or []
    if not series and timeseries:
        series = [[row["cycles"], row.get("edges", 0)]
                  for row in timeseries]
    parts.append("<h2>Coverage growth</h2>")
    parts.append(_coverage_svg(series))

    if timeseries:
        parts.append("<h2>Cycle budget over time (stacked phases)</h2>")
        parts.append(_phase_area_svg(timeseries))

    if worker_series:
        parts.append("<h2>Per-worker coverage lanes</h2>")
        parts.append(_lanes_svg(worker_series))

    profile = data.get("profile") or build_profile(data)
    if profile.get("total_cycles"):
        rows = profile_table_rows(profile)
        parts.append(_html_table(
            f"Cycle-budget profile "
            f"({100.0 * profile['attribution']:.1f}% attributed)",
            ["phase", "spans", "cycles", "share"], rows))

    phases = data.get("phases", {}) or {}
    if phases:
        total = sum(entry["cycles"] for entry in phases.values()) or 1
        rows = [[name, entry["count"], entry["cycles"],
                 f"{100.0 * entry['cycles'] / total:.1f}%"]
                for name, entry in sorted(phases.items())]
        parts.append(_html_table("Phase-time breakdown (spans)",
                                 ["phase", "spans", "cycles", "share"],
                                 rows))

    counters = (data.get("metrics", {}) or {}).get("counters", {})
    if counters:
        parts.append(_html_table(
            "Counters", ["counter", "value"],
            [[name, value] for name, value in sorted(counters.items())]))
    parts.append("</body></html>")
    return "".join(parts)


# -- the live campaign dashboard ---------------------------------------------

_BOLD, _DIM, _CYAN, _RESET = "\x1b[1m", "\x1b[2m", "\x1b[36m", "\x1b[0m"


def render_dashboard(summary: Dict[str, object],
                     ansi: bool = True) -> str:
    """One epoch-barrier status frame for ``campaign --dashboard``.

    ``summary`` is the orchestrator's epoch-hook payload; this renders
    it as a compact ANSI table (plain text when ``ansi`` is off).
    """
    bold, dim, cyan, reset = ((_BOLD, _DIM, _CYAN, _RESET) if ansi
                              else ("", "", "", ""))
    head = (f"{bold}{cyan}epoch {summary['epoch']:>3}{reset} "
            f"merged_edges={summary['edges']} "
            f"shared={summary['shared']} "
            f"imported={summary['imported']} "
            f"crashes={summary['crashes']} "
            f"live={summary['live']}/{summary['workers_total']}")
    rows = []
    for index, worker in enumerate(summary.get("workers", [])):
        status = worker.get("status", "live")
        rows.append([f"w{index}", worker.get("edges", 0),
                     worker.get("execs", 0),
                     worker.get("crashes", 0),
                     worker.get("restores", 0), status])
    table = render_table("workers",
                         ["board", "edges", "execs", "crashes",
                          "restores", "status"], rows)
    if ansi:
        table = dim + table + reset
    return head + "\n" + table


def dump_json(payload: Dict[str, object]) -> str:
    """Canonical ``--format json`` rendering of a run payload."""
    return json.dumps(payload, indent=2, sort_keys=True, default=str)
