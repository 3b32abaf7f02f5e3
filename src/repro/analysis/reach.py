"""Pass 2 — kernel reachability and instrumentation hygiene (``EOF2xx``).

Walks the Python AST of a target's kernel class (and any linked
components) from its API dispatch entries — the ``@kapi`` methods, the
boot/housekeeping lifecycle hooks, the OS's exception entry point, and
any extra roots a kernel declares via ``ANALYSIS_ROOTS`` — building a
conservative call graph: a method reaches another when its body mentions
it as an attribute (``self.foo(...)``, ``self.kernel.foo``) *or* as a
string constant (``getattr``-style dispatch, handler tables).

Intersecting the reachable set with the build's
:class:`~repro.instrument.sites.SiteTable` yields:

* **EOF201** — dead instrumentation: an instrumented function no
  dispatch entry can reach (its site block can never fire, inflating the
  denominator of any coverage ratio),
* **EOF202** — a ``self.ctx.cov(n)`` whose constant ``n`` falls outside
  the function's declared site block (it would be modulo-clamped at
  runtime, aliasing two distinct branches onto one site),
* **EOF203** — runtime clamp occurrences already recorded by
  :data:`repro.instrument.sites.CLAMPS` in this process,

plus the *statically-reachable edge universe*: a structural estimate of
how many distinct ``(prev_site, cur_site)`` records the instrumentation
can produce.  ``coverage_saturation = edges_seen / reachable_edges`` is
what makes a flat coverage trajectory interpretable — saturated targets
and stagnating fuzzers look identical in raw edge counts.
"""

from __future__ import annotations

import ast
import inspect
import textwrap
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.diagnostics import Diagnostic, diag
from repro.instrument.sites import CLAMPS, SiteTable
from repro.oses.common.api import collect_apis, collect_kfuncs

#: Lifecycle hooks that execute outside API dispatch (boot, idle ticks,
#: per-testcase resets, fatal-signal routing).  They fire coverage too,
#: so reachability roots at them as well as at the ``@kapi`` surface.
LIFECYCLE_ROOTS: Tuple[str, ...] = (
    "boot", "boot_os", "idle_tick", "on_testcase_start", "on_boot",
    "handle_fatal",
)


@dataclass
class ReachResult:
    """Reachability of one build: call graph + site intersection."""

    os_name: str = ""
    roots: List[str] = field(default_factory=list)
    reachable: Set[str] = field(default_factory=set)
    call_edges: Set[Tuple[str, str]] = field(default_factory=set)
    instrumented: List[str] = field(default_factory=list)
    dead_functions: List[str] = field(default_factory=list)
    reachable_sites: int = 0
    total_sites: int = 0
    reachable_edges: int = 0
    diagnostics: List[Diagnostic] = field(default_factory=list)

    def summary(self) -> Dict[str, object]:
        return {
            "reach.roots": len(self.roots),
            "reach.functions_reachable": len(self.reachable),
            "reach.call_edges": len(self.call_edges),
            "reach.instrumented_functions": len(self.instrumented),
            "reach.dead_functions": len(self.dead_functions),
            "reach.sites_reachable": self.reachable_sites,
            "reach.sites_total": self.total_sites,
            "reach.edge_universe": self.reachable_edges,
        }


def _class_method_asts(cls: type) -> Dict[str, ast.FunctionDef]:
    """``name -> FunctionDef`` across a class's MRO (subclass wins)."""
    out: Dict[str, ast.FunctionDef] = {}
    for klass in reversed(cls.__mro__):
        if klass is object:
            continue
        try:
            source = textwrap.dedent(inspect.getsource(klass))
        except (TypeError, OSError):
            continue
        tree = ast.parse(source)
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                        out[item.name] = item
                break
    return out


def _method_refs(fn_node: ast.FunctionDef, known: Set[str]) -> Set[str]:
    """Method names a body can transfer control to.

    Conservative on purpose: any attribute access or string constant
    matching a known method name counts, so ``getattr(self, "hook")()``
    and handler tables keep their targets reachable.
    """
    refs: Set[str] = set()
    for node in ast.walk(fn_node):
        if isinstance(node, ast.Attribute) and node.attr in known:
            refs.add(node.attr)
        elif isinstance(node, ast.Constant) and \
                isinstance(node.value, str) and node.value in known:
            refs.add(node.value)
    return refs


def _cov_overflows(fn_node: ast.FunctionDef,
                   declared_sites: int) -> List[Tuple[int, int]]:
    """``(sub_site, line)`` for constant ``...cov(n)`` calls outside the
    declared block (valid sub-sites are 0..sites-1; 0 is the entry)."""
    overflows: List[Tuple[int, int]] = []
    for node in ast.walk(fn_node):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "cov" and node.args):
            continue
        first = node.args[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, int):
            if not 0 <= first.value < declared_sites:
                overflows.append((first.value, node.lineno))
    return overflows


def analyze_reachability(kernel_cls: type,
                         component_classes: Sequence[type] = (),
                         site_table: Optional[SiteTable] = None,
                         os_name: str = "") -> ReachResult:
    """Static reachability of one kernel + components against a build."""
    result = ReachResult(os_name=os_name or
                         getattr(kernel_cls, "NAME", kernel_cls.__name__))

    classes: List[type] = [kernel_cls, *component_classes]
    methods: Dict[str, ast.FunctionDef] = {}
    declared_sites: Dict[str, int] = {}
    roots: Set[str] = set()
    for cls in classes:
        methods.update(_class_method_asts(cls))
        for meta in collect_kfuncs(cls):
            declared_sites[meta.name] = meta.sites
        roots.update(api.name for api in collect_apis(cls))
        roots.update(getattr(cls, "ANALYSIS_ROOTS", ()))
    exception_symbol = getattr(kernel_cls, "EXCEPTION_SYMBOL", "")
    roots.update(LIFECYCLE_ROOTS)
    if exception_symbol:
        roots.add(exception_symbol)
    known = set(methods)
    roots &= known
    result.roots = sorted(roots)

    # -- call graph + transitive closure ------------------------------------
    graph = {name: _method_refs(node, known)
             for name, node in methods.items()}
    seen: Set[str] = set()
    stack = sorted(roots)
    while stack:
        current = stack.pop()
        if current in seen:
            continue
        seen.add(current)
        for callee in graph.get(current, ()):
            result.call_edges.add((current, callee))
            if callee not in seen:
                stack.append(callee)
    result.reachable = seen

    # -- EOF202: static sub-site overflows (independent of the build) -------
    for name, sites in sorted(declared_sites.items()):
        node = methods.get(name)
        if node is None:
            continue
        for sub, line in _cov_overflows(node, sites):
            result.diagnostics.append(diag(
                "EOF202",
                f"{name} fires sub-site {sub} but declares only "
                f"{sites} sites; it will be clamped to {sub % sites}",
                where=f"{name}:{line}", sub_site=sub,
                declared_sites=sites))

    # -- site-table intersection --------------------------------------------
    if site_table is not None:
        result.total_sites = site_table.total_sites
        intra_edges = 0
        entry_returns = 0
        for info in site_table.blocks():
            result.instrumented.append(info.symbol)
            if info.symbol in seen:
                result.reachable_sites += info.count
                # Within a block: the linear chain plus one skip edge per
                # sub-site (branches bypass blocks), minus the entry.
                intra_edges += 2 * info.count - 1
                # Entry from the reset sentinel / an uninstrumented
                # caller, and the return edge back out.
                entry_returns += 2
            else:
                result.dead_functions.append(info.symbol)
                result.diagnostics.append(diag(
                    "EOF201",
                    f"instrumented function {info.symbol!r} "
                    f"({info.count} sites at base {info.base}) is not "
                    f"reachable from any dispatch entry",
                    where=info.symbol, sites=info.count, base=info.base))
        cross = sum(1 for caller, callee in result.call_edges
                    if caller in seen
                    and site_table.for_symbol(caller) is not None
                    and site_table.for_symbol(callee) is not None)
        # Each instrumented call edge contributes the entry edge into the
        # callee and the resume edge back into the caller.
        result.reachable_edges = intra_edges + entry_returns + 2 * cross

    # -- EOF203: runtime clamps recorded in this process --------------------
    if CLAMPS.count:
        worst = sorted(CLAMPS.by_symbol.items(),
                       key=lambda item: (-item[1], item[0]))[:5]
        result.diagnostics.append(diag(
            "EOF203",
            f"{CLAMPS.count} out-of-range sub-sites were clamped at "
            f"runtime (worst: "
            f"{', '.join(f'{s}={n}' for s, n in worst)})",
            where="sites.clamped", count=CLAMPS.count))
    return result


# Memoised per-build-shape universes: engines are constructed once per
# seed, and the AST walk is identical for identical build configurations.
_UNIVERSE_CACHE: Dict[Tuple, int] = {}


def reachable_edge_universe(build) -> int:
    """The statically-reachable edge universe of one ``BuildInfo``.

    Returns 0 for uninstrumented builds (no sites, no universe).
    """
    config = build.config
    key = (config.os_name, tuple(config.components),
           tuple(config.instrument_modules or ()),
           config.instrument, build.site_table.total_sites)
    cached = _UNIVERSE_CACHE.get(key)
    if cached is not None:
        return cached
    result = analyze_build(build)
    _UNIVERSE_CACHE[key] = result.reachable_edges
    return result.reachable_edges


def analyze_build(build) -> ReachResult:
    """Reachability of a :class:`~repro.firmware.builder.BuildInfo`."""
    from repro.oses import os_registry
    from repro.oses.components import component_registry

    kernel_cls = os_registry()[build.config.os_name]
    registry = component_registry()
    component_classes = [registry[name]
                         for name in build.config.components
                         if name in registry]
    return analyze_reachability(kernel_cls, component_classes,
                                site_table=build.site_table,
                                os_name=build.config.os_name)
