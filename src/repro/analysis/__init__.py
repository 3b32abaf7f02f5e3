"""``repro.analysis``: host-side static analysis of the whole stack.

Three passes with stable diagnostic codes (see
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

``analyze_target`` runs passes 1+2 (and optionally 3) for one
registered fuzz target and bundles everything into a single
:class:`~repro.analysis.diagnostics.AnalysisReport`;
``write_analysis_artifact`` drops it as ``analysis.json`` next to the
run's observability artifacts; ``explain_code`` backs ``eof-fuzz
analyze --explain``.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Optional

from repro.analysis.diagnostics import (  # noqa: F401 (re-exported surface)
    CODE_TABLE,
    AnalysisReport,
    Diagnostic,
    diag,
)
from repro.analysis.lint import lint_sources  # noqa: F401
from repro.analysis.reach import (  # noqa: F401
    ReachResult,
    analyze_build,
    analyze_reachability,
    reachable_edge_universe,
)
from repro.analysis.speclint import SpecLintResult, lint_spec  # noqa: F401

ANALYSIS_FILE = "analysis.json"


def analyze_target(target_name: str,
                   include_lint: bool = True) -> AnalysisReport:
    """Run the static-analysis passes for one registered fuzz target."""
    from repro.firmware.builder import build_firmware
    from repro.fuzz.targets import get_target
    from repro.spec.llmgen import generate_validated_specs

    target = get_target(target_name)
    build = build_firmware(target.build_config())
    report = AnalysisReport(target=target_name)

    spec = generate_validated_specs(build)
    spec_result = lint_spec(spec)
    report.extend(spec_result.diagnostics)
    report.summary.update(spec_result.summary())
    report.summary["spec.calls_total"] = len(spec.calls)

    reach_result = analyze_build(build)
    report.extend(reach_result.diagnostics)
    report.summary.update(reach_result.summary())

    if include_lint:
        lint_report = lint_sources()
        report.extend(lint_report.diagnostics)
        report.summary.update(lint_report.summary)
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
