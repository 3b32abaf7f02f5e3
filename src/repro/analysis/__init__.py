"""``repro.analysis``: host-side static analysis of the whole stack.

Four passes with stable diagnostic codes (see
:mod:`repro.analysis.diagnostics` for the code table):

* **Pass 1 — spec dataflow lint** (:mod:`repro.analysis.speclint`,
  ``EOF1xx``): producer/consumer resource-graph checks over a parsed
  :class:`~repro.spec.model.SpecSet`.  The generator consumes the result
  to prune statically-dead calls from sequence generation.
* **Pass 2 — kernel reachability** (:mod:`repro.analysis.reach`,
  ``EOF2xx``): AST call-graph walk from each target's API dispatch
  entries, intersected with the build's site table, yielding the
  statically-reachable edge universe behind ``coverage_saturation``.
* **Pass 3 — determinism lint** (:mod:`repro.analysis.lint`,
  ``EOF3xx``): repo-hygiene rules over ``src/repro`` itself, exposed as
  ``eof-fuzz lint`` and enforced in CI.
* **Pass 4 — concurrency effects** (:mod:`repro.analysis.concurrency`,
  ``EOF4xx``): interprocedural effect analysis over ``src/repro``, which
  runs on one thread (EOF308) — guarded-attribute discipline
  (``GUARDED_BY``), signal-handler effect whitelisting, and module
  globals written from signal context.  Exposed as ``eof-fuzz
  concurrency`` and gated in CI.

All passes honor inline ``# eof: allow[EOFnnn]`` suppressions
(:mod:`repro.analysis.suppress`); a stale allow is itself reported as
``EOF407``.

``analyze_target`` runs passes 1+2 (and optionally 3+4) for one
registered fuzz target and bundles everything into a single
:class:`~repro.analysis.diagnostics.AnalysisReport`;
``write_analysis_artifact`` drops it as ``analysis.json`` next to the
run's observability artifacts; ``explain_code`` backs ``eof-fuzz
analyze --explain``.
"""

from __future__ import annotations

import inspect
import json
import os
from typing import Dict, Optional, Tuple

from repro.analysis.diagnostics import (  # noqa: F401 (re-exported surface)
    CODE_TABLE,
    AnalysisReport,
    Diagnostic,
    diag,
)
from repro.analysis.concurrency import analyze_concurrency  # noqa: F401
from repro.analysis.lint import (  # noqa: F401
    _iter_python_files,
    _rel,
    default_lint_root,
    lint_sources,
)
from repro.analysis.reach import (  # noqa: F401
    ReachResult,
    analyze_build,
    analyze_reachability,
    reachable_edge_universe,
)
from repro.analysis.speclint import SpecLintResult, lint_spec  # noqa: F401
from repro.analysis.suppress import (  # noqa: F401
    SuppressionIndex,
    scan_suppressions,
)

ANALYSIS_FILE = "analysis.json"


def _repo_suppressions() -> SuppressionIndex:
    """One shared suppression index over the ``repro`` package tree."""
    root = default_lint_root()
    return scan_suppressions(
        [(path, _rel(path, root))
         for path in _iter_python_files([root])])


def _api_locations(kernel_cls: type) -> Dict[str, Tuple[str, int]]:
    """``call name -> (rel_path, def line)`` for a kernel's API surface,
    so spec diagnostics can honor inline suppressions."""
    from repro.oses.common.api import collect_apis

    root = default_lint_root()
    out: Dict[str, Tuple[str, int]] = {}
    for api in collect_apis(kernel_cls):
        func = inspect.unwrap(getattr(kernel_cls, api.name, None)
                              or (lambda: None))
        try:
            source_file = inspect.getsourcefile(func)
            _lines, first_line = inspect.getsourcelines(func)
        except (TypeError, OSError):
            continue
        if source_file:
            out[api.name] = (_rel(os.path.abspath(source_file), root),
                             first_line)
    return out


def analyze_target(target_name: str,
                   include_lint: bool = True,
                   include_concurrency: bool = True) -> AnalysisReport:
    """Run the static-analysis passes for one registered fuzz target."""
    from repro.firmware.builder import build_firmware
    from repro.fuzz.targets import get_target
    from repro.oses import os_registry
    from repro.spec.llmgen import generate_validated_specs

    target = get_target(target_name)
    build = build_firmware(target.build_config())
    report = AnalysisReport(target=target_name)
    suppressions = _repo_suppressions()

    kernel_cls = os_registry()[build.config.os_name]
    spec = generate_validated_specs(build)
    spec_result = lint_spec(spec, suppressions=suppressions,
                            locations=_api_locations(kernel_cls))
    report.extend(spec_result.diagnostics)
    report.summary.update(spec_result.summary())
    report.summary["spec.calls_total"] = len(spec.calls)

    reach_result = analyze_build(build, suppressions=suppressions)
    report.extend(reach_result.diagnostics)
    report.summary.update(reach_result.summary())

    prefixes = ["EOF1", "EOF2"]
    if include_lint:
        lint_report = lint_sources(suppressions=suppressions)
        report.extend(lint_report.diagnostics)
        report.summary.update(lint_report.summary)
        prefixes.append("EOF3")
    if include_concurrency:
        conc_report = analyze_concurrency(suppressions=suppressions)
        report.extend(conc_report.diagnostics)
        report.summary.update(conc_report.summary)
        prefixes.append("EOF4")
    # EOF407 only for code ranges this invocation actually checked: an
    # allow for a pass that did not run is unproven, not stale.
    report.extend(suppressions.unused_diagnostics(tuple(prefixes)))
    return report


def analysis_summary(report: AnalysisReport) -> Dict[str, object]:
    """Compact dict for run artifacts and the report.txt section."""
    codes: Dict[str, int] = {}
    for diagnostic in report.diagnostics:
        codes[diagnostic.code] = codes.get(diagnostic.code, 0) + 1
    return {
        "target": report.target,
        "diagnostics": len(report.diagnostics),
        "codes": codes,
        "summary": {key: value
                    for key, value in sorted(report.summary.items())
                    if isinstance(value, (int, float, str, bool))},
    }


#: Modules whose docstrings document diagnostic codes, in lookup order.
_EXPLAIN_MODULES = (
    "repro.analysis.speclint",
    "repro.spec.validate",
    "repro.analysis.reach",
    "repro.analysis.lint",
    "repro.analysis.concurrency",
    "repro.analysis.suppress",
)


def _docstring_section(code: str) -> str:
    """The documentation chunk for ``code`` from its pass docstring.

    Paragraph blocks are split on blank lines; bullet lists pack several
    codes into one block, so within a block the bullet starting at the
    ``**code**`` marker is carved out up to the next top-level bullet.
    """
    import importlib

    for module_name in _EXPLAIN_MODULES:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            continue
        doc = module.__doc__ or ""
        if code not in doc:
            continue
        for block in doc.split("\n\n"):
            if code not in block:
                continue
            lines = block.splitlines()
            starts = [i for i, line in enumerate(lines)
                      if line.lstrip().startswith("* ")]
            if not starts:
                return block.strip("\n")
            # Find the bullet whose span contains the code marker.
            for i, start in enumerate(starts):
                end = starts[i + 1] if i + 1 < len(starts) else len(lines)
                chunk = "\n".join(lines[start:end])
                if code in chunk:
                    return chunk.rstrip("\n")
            return block.strip("\n")
    return ""


def explain_code(code: str) -> Optional[str]:
    """Human documentation for one diagnostic code (None if unknown)."""
    if code not in CODE_TABLE:
        return None
    header = f"{code}: {CODE_TABLE[code]}"
    section = _docstring_section(code)
    return f"{header}\n\n{section}" if section else header


def write_analysis_artifact(run_dir: str,
                            report: AnalysisReport) -> str:
    """Write ``analysis.json`` into a run-artifact directory."""
    os.makedirs(run_dir, exist_ok=True)
    path = os.path.join(run_dir, ANALYSIS_FILE)
    from repro.db.io import atomic_write_json
    return atomic_write_json(path, report.to_dict())


def load_analysis_artifact(run_dir: str) -> Optional[AnalysisReport]:
    """Read a run directory's ``analysis.json`` (None if absent)."""
    path = os.path.join(run_dir, ANALYSIS_FILE)
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return AnalysisReport.from_dict(json.load(fh))
