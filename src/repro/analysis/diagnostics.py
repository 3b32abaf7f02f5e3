"""Shared diagnostic model for the static-analysis passes.

Every finding any pass produces is a :class:`Diagnostic` with a *stable*
code, so tooling (CI gates, ``analysis.json`` consumers, tests) can match
on codes instead of message text.  Code ranges are reserved per pass:

* ``EOF1xx`` — specification dataflow (:mod:`repro.analysis.speclint`)
  and spec/API validation (:mod:`repro.spec.validate`),
* ``EOF2xx`` — kernel reachability and instrumentation-site hygiene
  (:mod:`repro.analysis.reach`),
* ``EOF3xx`` — repo determinism / hygiene lint
  (:mod:`repro.analysis.lint`).

An :class:`AnalysisReport` aggregates the diagnostics of one analysis
run plus pass-level summary numbers, and round-trips through JSON as the
``analysis.json`` run artifact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple

#: Stable code -> short title.  New codes are appended, never renumbered.
CODE_TABLE: Dict[str, str] = {
    # -- EOF1xx: spec dataflow + validation ---------------------------------
    "EOF101": "resource consumed but never produced",
    "EOF102": "call transitively unsatisfiable (statically dead)",
    "EOF103": "flags definition never referenced",
    "EOF104": "unsatisfiable integer range (lo > hi)",
    "EOF105": "shadowed or oversized string candidate",
    "EOF110": "spec/API call-count mismatch",
    "EOF111": "spec/API call-order mismatch",
    "EOF112": "spec/API arity mismatch",
    "EOF113": "spec/API pseudo-attribute mismatch",
    "EOF114": "spec/API return-resource mismatch",
    "EOF115": "spec/API parameter mismatch",
    # -- EOF2xx: reachability + instrumentation -----------------------------
    "EOF201": "dead instrumentation site block (unreachable function)",
    "EOF202": "static sub-site overflow (cov() out of declared range)",
    "EOF203": "runtime sub-site clamps observed",
    # -- EOF3xx: determinism / hygiene lint ---------------------------------
    "EOF301": "nondeterministic call outside the RNG/observability layers",
    "EOF302": "bare except clause",
    "EOF303": "event name not declared in the event registry",
    "EOF304": "non-frozen dataclass in the spec model",
    "EOF305": "unparseable source file",
    "EOF306": "metric name not declared in the metric registry",
    "EOF307": "persistent artifact written without the atomic helpers",
    "EOF308": "threading module imported into the single-threaded tree",
}

SEV_ERROR = "error"
SEV_WARNING = "warning"
SEV_INFO = "info"


@dataclass(frozen=True)
class Diagnostic:
    """One finding: a stable code, a message, and where it points."""

    code: str
    message: str
    where: str = ""              # call name / symbol / file:line
    severity: str = SEV_WARNING
    data: Tuple[Tuple[str, object], ...] = ()   # JSON-friendly extras

    @property
    def title(self) -> str:
        """Short title of this diagnostic's code class."""
        return CODE_TABLE.get(self.code, "unknown diagnostic")

    def to_dict(self) -> Dict[str, object]:
        return {"code": self.code, "message": self.message,
                "where": self.where, "severity": self.severity,
                "data": dict(self.data)}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Diagnostic":
        return cls(code=str(data.get("code", "")),
                   message=str(data.get("message", "")),
                   where=str(data.get("where", "")),
                   severity=str(data.get("severity", SEV_WARNING)),
                   data=tuple(sorted(dict(data.get("data", {})).items())))

    def render(self) -> str:
        where = f" [{self.where}]" if self.where else ""
        return f"{self.code} {self.severity}{where}: {self.message}"


def diag(code: str, message: str, where: str = "",
         severity: str = SEV_WARNING, **data) -> Diagnostic:
    """Convenience constructor; ``data`` keys are sorted for determinism."""
    if code not in CODE_TABLE:
        raise ValueError(f"unregistered diagnostic code {code!r}")
    return Diagnostic(code=code, message=message, where=where,
                      severity=severity, data=tuple(sorted(data.items())))


@dataclass
class AnalysisReport:
    """All diagnostics of one analysis run plus pass summaries."""

    target: str = ""
    diagnostics: List[Diagnostic] = field(default_factory=list)
    summary: Dict[str, object] = field(default_factory=dict)

    def add(self, diagnostic: Diagnostic) -> None:
        self.diagnostics.append(diagnostic)

    def extend(self, diagnostics: Iterable[Diagnostic]) -> None:
        self.diagnostics.extend(diagnostics)

    def by_code(self, prefix: str) -> List[Diagnostic]:
        """All diagnostics whose code starts with ``prefix`` (e.g. "EOF2")."""
        return [d for d in self.diagnostics if d.code.startswith(prefix)]

    def codes(self) -> List[str]:
        """Sorted distinct codes present in this report."""
        return sorted({d.code for d in self.diagnostics})

    @property
    def clean(self) -> bool:
        """True when no diagnostics were produced."""
        return not self.diagnostics

    def to_dict(self) -> Dict[str, object]:
        return {"target": self.target,
                "summary": dict(self.summary),
                "diagnostics": [d.to_dict() for d in self.diagnostics]}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "AnalysisReport":
        report = cls(target=str(data.get("target", "")),
                     summary=dict(data.get("summary", {})))
        report.extend(Diagnostic.from_dict(item)
                      for item in data.get("diagnostics", []))
        return report

    def render(self) -> str:
        """Human rendering: summary lines, then one line per diagnostic."""
        lines = []
        if self.target:
            lines.append(f"target    : {self.target}")
        for key in sorted(self.summary):
            lines.append(f"{key:24}: {self.summary[key]}")
        if self.diagnostics:
            lines.append(f"diagnostics ({len(self.diagnostics)}):")
            lines.extend("  " + d.render() for d in self.diagnostics)
        else:
            lines.append("diagnostics: none")
        return "\n".join(lines)
