"""Concurrency pass: guarded-attribute and signal-safety checks.

Built on the interprocedural effect analysis in
:mod:`repro.analysis.effects`.  ``src/repro`` runs on one thread — lint
rule EOF308 rejects any threading import — so the one context that can
preempt the coordinator is a signal handler.  Signal context is
discovered, not declared: it flows from every handler passed to
``signal.signal`` along the static call graph.  The declared side of
the contract is the ``GUARDED_BY`` class attribute: a mapping from
attribute name to one of the sentinels ``"@atomic"`` / ``"@main"``.

Diagnostics:

* **EOF401** — an instance attribute named in ``GUARDED_BY`` is
  written against its declared guard.  ``"@atomic"`` attributes may
  only be assigned whole literal constants (a store a signal handler
  can make without tearing anything, the stop-flag pattern); ``"@main"``
  attributes may not be written from signal context at all.  Any other
  guard value names a lock, and with no second thread there is no lock
  to hold, so every write to such an attribute is a finding.
  ``__init__`` is exempt: construction happens before the object is
  published.
* **EOF403** — a signal handler whose *transitive* effect set exceeds
  the async-signal-safe whitelist: constant flag assignments and
  ``.append(...)`` on a pre-existing container.  Anything else —
  compound updates, dict stores, I/O-adjacent state — can observe torn
  invariants when the handler preempts arbitrary bytecode.
* **EOF404** — a mutable module-level global written (rebound via an
  explicit ``global``, item-assigned, or mutated in place) from a
  function reachable in signal context.  State a handler touches must
  live on an object whose ``GUARDED_BY`` contract says so.
* **EOF405** — guarded state mutated from *outside* its owning class
  (``other.state.crashes[k] = ...``) against its declared guard: the
  same ``@atomic`` / ``@main`` rules as EOF401, and a lock guard is
  never satisfied.

What this pass does **not** prove: it reasons over the static call
graph (dynamic dispatch is approximated by type inference plus
unique-name fallback) and says nothing about atomicity of
read-modify-write *reads*.  It is a discipline checker — a
machine-checked convention — not a model checker.
"""

from __future__ import annotations

import os
from typing import List, Optional, Sequence, Set

from repro.analysis.diagnostics import AnalysisReport, Diagnostic, diag
from repro.analysis.effects import (
    CodeIndex,
    Effect,
    FunctionInfo,
    build_index,
    signal_reachable,
    transitive_effects,
)
from repro.analysis.suppress import SuppressionIndex, scan_suppressions

#: The guard sentinels a ``GUARDED_BY`` value may use.
SENTINEL_ATOMIC = "@atomic"
SENTINEL_MAIN = "@main"


def _guard_for(index: CodeIndex, owner: str, attr: str) -> str:
    """The declared guard for ``owner.attr``, searching base classes."""
    for name in index._base_closure(owner):
        cls = index.class_of(name)
        if cls is not None and attr in cls.guarded_by:
            return cls.guarded_by[attr]
    return ""


def _where(fn: FunctionInfo, line: int) -> str:
    return f"{fn.rel_path}:{line}"


def _whitelisted_handler_effect(effect: Effect) -> bool:
    """The async-signal-safe effect shapes EOF403 permits."""
    if effect.op == "assign" and effect.const:
        return True
    return effect.op == "mutate" and effect.detail == "append"


# ---------------------------------------------------------------------------
# EOF401 / EOF405 — guarded-attribute discipline
# ---------------------------------------------------------------------------

def _check_guarded_writes(index: CodeIndex,
                          in_signal: Set[FunctionInfo]
                          ) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    for fn in index.functions:
        for effect in fn.effects:
            if effect.kind != "attr" or not effect.owner:
                continue
            guard = _guard_for(index, effect.owner, effect.name)
            if not guard:
                continue
            if effect.via_self and fn.name == "__init__":
                continue
            violation = _guard_violation(guard, effect, fn in in_signal)
            if not violation:
                continue
            if effect.via_self:
                out.append(diag(
                    "EOF401",
                    f"{effect.owner}.{effect.name} is declared "
                    f"GUARDED_BY {guard!r} but {violation}",
                    where=_where(fn, effect.line),
                    function=fn.qual, attribute=effect.name,
                    guard=guard))
            else:
                out.append(diag(
                    "EOF405",
                    f"{effect.owner}.{effect.name} is mutated from "
                    f"outside {effect.owner} ({fn.qual}) but "
                    f"{violation}",
                    where=_where(fn, effect.line),
                    function=fn.qual, attribute=effect.name,
                    guard=guard))
    return out


def _guard_violation(guard: str, effect: Effect, in_signal: bool) -> str:
    """A description of how a write breaks its guard, or "" when the
    write is disciplined."""
    if guard == SENTINEL_ATOMIC:
        if effect.op == "assign" and effect.const:
            return ""
        return ("@atomic allows only whole constant assignments; "
                f"this is a {effect.op} write")
    if guard == SENTINEL_MAIN:
        if in_signal:
            return "@main state is written from signal context"
        return ""
    return (f"{guard!r} names a lock, and a single-threaded tree has "
            f"none to hold; declare @atomic or @main")


# ---------------------------------------------------------------------------
# EOF403 — signal-handler effect whitelist
# ---------------------------------------------------------------------------

def _check_signal_handlers(index: CodeIndex) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    seen: Set[int] = set()
    for handler in index.signal_roots:
        if id(handler) in seen:
            continue
        seen.add(id(handler))
        offending = [
            (fn, effect)
            for fn, effect in transitive_effects(index, handler)
            if not _whitelisted_handler_effect(effect)]
        if not offending:
            continue
        offending.sort(key=lambda pair: (pair[0].rel_path,
                                         pair[1].line))
        fn, effect = offending[0]
        target = f"{effect.owner}.{effect.name}" if effect.kind == "attr" \
            else effect.name
        extra = f" (+{len(offending) - 1} more)" \
            if len(offending) > 1 else ""
        out.append(diag(
            "EOF403",
            f"signal handler {handler.qual} transitively performs a "
            f"non-whitelisted {effect.op} write to {target} at "
            f"{fn.rel_path}:{effect.line}{extra}; handlers may only "
            f"set constant flags or append to existing containers",
            where=_where(handler, handler.lineno),
            handler=handler.qual, effects=len(offending)))
    return out


# ---------------------------------------------------------------------------
# EOF404 — module globals under signal handlers
# ---------------------------------------------------------------------------

def _check_module_globals(index: CodeIndex,
                          in_signal: Set[FunctionInfo]
                          ) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    for fn in index.functions:
        if fn not in in_signal:
            continue
        for effect in fn.effects:
            if effect.kind != "global":
                continue
            if effect.op == "assign" and effect.const:
                continue        # a flag store cannot tear
            out.append(diag(
                "EOF404",
                f"module global {effect.name!r} is mutated "
                f"({effect.op}) by {fn.qual}, which runs in signal "
                f"context",
                where=_where(fn, effect.line),
                function=fn.qual, name=effect.name))
    return out


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def analyze_concurrency(paths: Optional[Sequence[str]] = None,
                        suppressions: Optional[SuppressionIndex] = None,
                        report_unused: bool = True) -> AnalysisReport:
    """Run the EOF4xx rules over the sources under ``paths``.

    ``suppressions`` may be a pre-built shared index (the caller then
    owns EOF407 reporting); by default the pass scans its own files for
    ``# eof: allow[...]`` comments and, with ``report_unused``, flags
    stale EOF4xx allows.
    """
    index = build_index(paths)
    in_signal = signal_reachable(index)

    report = AnalysisReport(target="concurrency")
    diagnostics: List[Diagnostic] = []
    diagnostics.extend(_check_guarded_writes(index, in_signal))
    diagnostics.extend(_check_signal_handlers(index))
    diagnostics.extend(_check_module_globals(index, in_signal))

    own_index = suppressions is None
    if own_index:
        suppressions = scan_suppressions(index.files)
    diagnostics = suppressions.filter(diagnostics)
    diagnostics.sort(key=lambda d: (d.where, d.code, d.message))
    report.extend(diagnostics)
    if own_index and report_unused:
        report.extend(suppressions.unused_diagnostics(("EOF4",)))

    guarded = sum(1 for cls in index.classes.values() if cls.guarded_by)
    report.summary = {
        "conc.files": len(index.files),
        "conc.functions": len(index.functions),
        "conc.classes_guarded": guarded,
        "conc.signal_handlers": len({id(h) for h in index.signal_roots}),
        "conc.diagnostics": len(report.diagnostics),
    }
    return report


def default_concurrency_paths() -> List[str]:
    """The tree the CI strict gate scans: ``src/repro``."""
    from repro.analysis.lint import default_lint_root
    return [os.path.abspath(default_lint_root())]
