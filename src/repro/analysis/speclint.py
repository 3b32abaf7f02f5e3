"""Pass 1 — specification dataflow lint (``EOF1xx``).

Builds the producer/consumer resource graph over a parsed
:class:`~repro.spec.model.SpecSet` and flags structure the type checker
cannot see:

* **EOF101** — a resource some call consumes but *no* call produces; the
  generator can never satisfy such a parameter.
* **EOF102** — a call that is *transitively* unsatisfiable: at least one
  of its consumed resources has no satisfiable producer (computed as a
  fixpoint over the resource graph, so a producer that itself depends on
  an unproduced resource does not count).  These are the statically-dead
  calls the generator prunes — executing them on the target can only
  burn budget on validation failures.
* **EOF103** — a ``flags`` definition no call references.
* **EOF104** — an integer parameter whose range is empty (``lo > hi``).
* **EOF105** — a string candidate that can never be emitted: a duplicate
  of an earlier candidate (shadowed) or longer than ``maxlen``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set

from repro.analysis.diagnostics import Diagnostic, SEV_ERROR, diag
from repro.spec.model import FlagsRef, IntType, SpecSet, StringType


@dataclass
class SpecLintResult:
    """Diagnostics plus the statically-dead call set consumers prune."""

    os_name: str = ""
    diagnostics: List[Diagnostic] = field(default_factory=list)
    #: api_ids of transitively-unsatisfiable calls (the EOF102 set).
    dead_call_ids: Set[int] = field(default_factory=set)
    #: resources consumed but never produced (the EOF101 set).
    unproduced_resources: Set[str] = field(default_factory=set)

    @property
    def clean(self) -> bool:
        return not self.diagnostics

    def summary(self) -> Dict[str, object]:
        return {"spec.dead_calls": len(self.dead_call_ids),
                "spec.unproduced_resources":
                    sorted(self.unproduced_resources),
                "spec.diagnostics": len(self.diagnostics)}


def _satisfiable_calls(spec: SpecSet) -> Set[int]:
    """Fixpoint: a call is satisfiable iff every resource it consumes has
    at least one satisfiable producer."""
    producers: Dict[str, List[int]] = {}
    for api_id, call in enumerate(spec.calls):
        if call.ret:
            producers.setdefault(call.ret, []).append(api_id)
    satisfiable: Set[int] = set()
    changed = True
    while changed:
        changed = False
        for api_id, call in enumerate(spec.calls):
            if api_id in satisfiable:
                continue
            ok = True
            for need in call.consumes():
                live = [p for p in producers.get(need, ())
                        if p in satisfiable]
                if not live:
                    ok = False
                    break
            if ok:
                satisfiable.add(api_id)
                changed = True
    return satisfiable


def lint_spec(spec: SpecSet) -> SpecLintResult:
    """Run the dataflow lint over one parsed specification."""
    result = SpecLintResult(os_name=spec.os_name)

    produced = {call.ret for call in spec.calls if call.ret}
    consumed: Set[str] = set()
    for call in spec.calls:
        consumed.update(call.consumes())

    # EOF101 — consumed but never produced.
    for resource in sorted(consumed - produced):
        needers = [c.name for c in spec.calls if resource in c.consumes()]
        result.unproduced_resources.add(resource)
        result.diagnostics.append(diag(
            "EOF101",
            f"resource {resource!r} is consumed by "
            f"{', '.join(needers)} but no call produces it",
            where=resource, severity=SEV_ERROR, consumers=tuple(needers)))

    # EOF102 — transitively unsatisfiable calls (the prune set).
    satisfiable = _satisfiable_calls(spec)
    for api_id, call in enumerate(spec.calls):
        if api_id in satisfiable:
            continue
        missing = sorted(need for need in call.consumes()
                         if not any(p in satisfiable
                                    for p in spec.producers_of(need)))
        result.dead_call_ids.add(api_id)
        result.diagnostics.append(diag(
            "EOF102",
            f"call {call.name!r} can never be satisfied: no reachable "
            f"producer for {', '.join(repr(m) for m in missing)}",
            where=call.name, severity=SEV_ERROR,
            api_id=api_id, missing=tuple(missing)))

    # EOF103 — dead flags definitions.
    referenced = {param.type.name for call in spec.calls
                  for param in call.params
                  if isinstance(param.type, FlagsRef)}
    for name in sorted(set(spec.flags) - referenced):
        result.diagnostics.append(diag(
            "EOF103", f"flags {name!r} is declared but never referenced",
            where=name))

    # EOF104 / EOF105 — per-parameter type pathologies.
    for call in spec.calls:
        for param in call.params:
            where = f"{call.name}.{param.name}"
            if isinstance(param.type, IntType) and \
                    param.type.lo > param.type.hi:
                result.diagnostics.append(diag(
                    "EOF104",
                    f"parameter {where} has empty range "
                    f"[{param.type.lo}:{param.type.hi}]",
                    where=where, severity=SEV_ERROR))
            if isinstance(param.type, StringType):
                seen: Set[str] = set()
                for candidate in param.type.candidates:
                    if candidate in seen:
                        result.diagnostics.append(diag(
                            "EOF105",
                            f"parameter {where}: candidate "
                            f"{candidate!r} shadows an earlier duplicate",
                            where=where, candidate=candidate))
                    elif len(candidate) > param.type.maxlen:
                        result.diagnostics.append(diag(
                            "EOF105",
                            f"parameter {where}: candidate "
                            f"{candidate!r} exceeds maxlen "
                            f"{param.type.maxlen} and can never be emitted",
                            where=where, candidate=candidate))
                    seen.add(candidate)
    return result
