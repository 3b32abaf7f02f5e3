"""Pass 3 — repo determinism and hygiene linter (``EOF3xx``).

AST-based rules over ``src/repro`` itself, turning reviewer vigilance
into machine-checked invariants:

* **EOF301** — calls into wall-clock / ambient-randomness APIs
  (``random.*``, ``time.time()``, ``time.monotonic()``,
  ``datetime.now()``/``utcnow()``, argless ``uuid`` helpers) anywhere
  except the seeded RNG (``fuzz/rng.py``) and the observability layer
  (``obs/``), whose wall timestamps are explicitly non-replayable.
  Everything else must consume deterministic virtual time or a seeded
  :class:`~repro.fuzz.rng.FuzzRng` stream, or replays break.
* **EOF302** — bare ``except:`` clauses (they swallow
  ``KeyboardInterrupt`` and hide target signals).
* **EOF303** — an ``emit("name", ...)`` event whose literal name is not
  declared in :data:`repro.obs.events.EVENT_REGISTRY`; undeclared names
  silently fork the event vocabulary run artifacts are parsed by.
* **EOF304** — a dataclass in ``spec/model.py`` that is not
  ``frozen=True``; spec nodes are shared across generator, mutator and
  analysis passes and must be immutable.
* **EOF305** — a source file under the linted tree that does not parse;
  an unparseable file is invisible to every AST rule, so it is itself a
  finding rather than a silent skip.
* **EOF306** — a ``counter("name")`` / ``gauge("name")`` /
  ``histogram("name")`` call whose literal name is not declared in
  :data:`repro.obs.metrics.METRIC_REGISTRY`; the metric vocabulary is
  closed the same way the event vocabulary is (telemetry artifacts —
  ``metrics.prom``, ``timeseries.jsonl``, the HTML report — select
  metrics by name).  Dynamically formatted families (``ddi.cmd.*``,
  ``recovery.rung.*``) are outside the literal check by design.
* **EOF307** — a bare ``open(..., "w")`` whose path names a persistent
  artifact (``.json`` / ``.jsonl`` / ``.prom`` / ``.html``, literally
  or via a module-level filename constant); such writes must go through
  :mod:`repro.db.io`'s atomic helpers so a kill never leaves a torn
  half-file.  The helper module itself is exempt, and append-streamed
  journals opened on a computed path (``events.jsonl`` live sink, the
  sampler) are outside the literal check — their loaders tolerate torn
  tails instead.
* **EOF308** — an import of ``threading``, ``_thread`` or
  ``concurrent.futures``.  The tree runs on one thread: campaign
  parallelism comes from child processes, and the only code that can
  preempt the coordinator is the CLI's one signal handler,
  ``_graceful_stop``, which records the signal and sets the
  orchestrator's stop flag (a second signal raises
  ``KeyboardInterrupt``).

Exposed as ``eof-fuzz lint`` and run in CI; the suite asserts the tree
is clean, so any new violation fails the build with its stable code.
"""

from __future__ import annotations

import ast
import os
from typing import Iterable, List, Optional, Sequence

from repro.analysis.diagnostics import (
    CODE_TABLE,
    SEV_ERROR,
    AnalysisReport,
    diag,
)

#: Path fragments (relative, ``/``-separated) exempt from EOF301.
NONDETERMINISM_ALLOWED = ("fuzz/rng.py", "obs/")

#: module -> attributes whose *call* is nondeterministic.
_BANNED_CALLS = {
    "random": None,          # every random.* call
    "time": ("time", "monotonic", "perf_counter", "time_ns",
             "monotonic_ns", "perf_counter_ns"),
    "datetime": ("now", "utcnow", "today"),
    "uuid": ("uuid1", "uuid4"),
}


def _iter_python_files(paths: Sequence[str]) -> Iterable[str]:
    for path in paths:
        if os.path.isfile(path):
            yield path
            continue
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(d for d in dirnames
                                 if d != "__pycache__")
            for filename in sorted(filenames):
                if filename.endswith(".py"):
                    yield os.path.join(dirpath, filename)


def _rel(path: str, root: str) -> str:
    return os.path.relpath(path, root).replace(os.sep, "/")


def _nondet_allowed(rel_path: str) -> bool:
    return any(fragment in rel_path for fragment in NONDETERMINISM_ALLOWED)


def _banned_call(node: ast.Call) -> Optional[str]:
    """Dotted name of a banned nondeterministic call, or None."""
    func = node.func
    if not isinstance(func, ast.Attribute):
        return None
    # Only flag <module>.<attr>(...) and datetime.datetime.now(...) style
    # chains whose *base* is a bare module name — ``self.rng.random`` and
    # other object attributes stay legal.
    base = func.value
    chain = [func.attr]
    while isinstance(base, ast.Attribute):
        chain.append(base.attr)
        base = base.value
    if not isinstance(base, ast.Name):
        return None
    chain.append(base.id)
    chain.reverse()                      # e.g. ["datetime", "datetime", "now"]
    # The chain must be rooted at the module name itself: ``random.x()``
    # is banned, ``self.rng.random.shuffle()`` is a seeded stream.
    banned = _BANNED_CALLS.get(chain[0], ())
    if banned == ():
        return None
    if banned is None or chain[-1] in banned:
        return ".".join(chain)
    return None


def _event_registry() -> frozenset:
    from repro.obs.events import EVENT_REGISTRY
    return EVENT_REGISTRY


def _metric_registry() -> frozenset:
    from repro.obs.metrics import METRIC_REGISTRY
    return METRIC_REGISTRY


#: Method names whose literal first argument names a metric (EOF306).
_METRIC_FACTORIES = ("counter", "gauge", "histogram")

#: Modules whose import would start a second thread (EOF308).
THREADING_MODULES = ("threading", "_thread", "concurrent.futures")

#: Filename suffixes that mark a persistent artifact (EOF307): parsed
#: back by consumers, so a torn half-write is data loss.
PERSISTENT_SUFFIXES = (".json", ".jsonl", ".prom", ".html")

#: Path fragments exempt from EOF307 (the atomic helpers themselves).
ATOMIC_WRITE_ALLOWED = ("db/io.py",)


def _module_constants(tree: ast.AST) -> dict:
    """Module-level ``NAME = "literal"`` string bindings.

    EOF307 resolves these so ``open(join(dir, METRICS_FILE), "w")`` is
    caught just like an inline ``"metrics.json"`` literal.
    """
    constants = {}
    body = tree.body if isinstance(tree, ast.Module) else []
    for node in body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and \
                isinstance(node.targets[0], ast.Name) and \
                isinstance(node.value, ast.Constant) and \
                isinstance(node.value.value, str):
            constants[node.targets[0].id] = node.value.value
    return constants


def _artifact_name(node: ast.AST, constants: dict) -> Optional[str]:
    """Persistent-artifact filename referenced by a path expression.

    Looks through string literals, module-level filename constants,
    f-string fragments, ``os.path.join(...)``-style calls and string
    concatenation; anything it cannot resolve (attributes, locals) is
    out of scope — those are the streaming-sink paths EOF307
    deliberately leaves alone.
    """
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value if node.value.endswith(PERSISTENT_SUFFIXES) \
            else None
    if isinstance(node, ast.Name):
        value = constants.get(node.id)
        return value if value is not None and \
            value.endswith(PERSISTENT_SUFFIXES) else None
    if isinstance(node, ast.JoinedStr):
        for part in node.values:
            if isinstance(part, ast.Constant) and \
                    isinstance(part.value, str) and \
                    part.value.endswith(PERSISTENT_SUFFIXES):
                return part.value
        return None
    if isinstance(node, ast.Call):
        for arg in node.args:
            found = _artifact_name(arg, constants)
            if found is not None:
                return found
        return None
    if isinstance(node, ast.BinOp):
        return _artifact_name(node.left, constants) or \
            _artifact_name(node.right, constants)
    return None


def _open_write_mode(node: ast.Call) -> Optional[str]:
    """The literal write mode of a bare ``open`` call, or None.

    Append modes pass: streamed journals legitimately append, and their
    loaders tolerate torn tails.
    """
    if not (isinstance(node.func, ast.Name) and node.func.id == "open"):
        return None
    if len(node.args) >= 2:
        mode_node = node.args[1]
    else:
        mode_node = next((kw.value for kw in node.keywords
                          if kw.arg == "mode"), None)
    if not isinstance(mode_node, ast.Constant) or \
            not isinstance(mode_node.value, str):
        return None
    mode = mode_node.value
    return mode if ("w" in mode or "x" in mode) else None


def _threading_import(node: ast.AST) -> Optional[str]:
    """The threading module an import statement names, or None."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom) and not node.level:
        names = [f"{node.module}.{alias.name}" for alias in node.names]
    else:
        return None
    for name in names:
        for module in THREADING_MODULES:
            if name == module or name.startswith(module + "."):
                return module
    return None


def _lint_tree(tree: ast.AST, rel_path: str,
               registry: frozenset,
               metric_registry: frozenset) -> List:
    diagnostics = []
    check_nondet = not _nondet_allowed(rel_path)
    check_frozen = rel_path.endswith("spec/model.py")
    check_atomic = not rel_path.endswith(ATOMIC_WRITE_ALLOWED)
    constants = _module_constants(tree) if check_atomic else {}
    for node in ast.walk(tree):
        if check_nondet and isinstance(node, ast.Call):
            banned = _banned_call(node)
            if banned is not None:
                diagnostics.append(diag(
                    "EOF301",
                    f"nondeterministic call {banned}() — route through "
                    f"fuzz/rng.py or the virtual clock",
                    where=f"{rel_path}:{node.lineno}",
                    severity=SEV_ERROR, call=banned))
        if isinstance(node, ast.ExceptHandler) and node.type is None:
            diagnostics.append(diag(
                "EOF302",
                "bare except: swallows KeyboardInterrupt and target "
                "signals; catch a concrete exception class",
                where=f"{rel_path}:{node.lineno}", severity=SEV_ERROR))
        if isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Attribute) and \
                node.func.attr == "emit" and node.args:
            first = node.args[0]
            if isinstance(first, ast.Constant) and \
                    isinstance(first.value, str) and \
                    first.value not in registry:
                diagnostics.append(diag(
                    "EOF303",
                    f"event {first.value!r} is not declared in "
                    f"repro.obs.events.EVENT_REGISTRY",
                    where=f"{rel_path}:{node.lineno}",
                    severity=SEV_ERROR, event=first.value))
        if isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Attribute) and \
                node.func.attr in _METRIC_FACTORIES and node.args:
            first = node.args[0]
            if isinstance(first, ast.Constant) and \
                    isinstance(first.value, str) and \
                    first.value not in metric_registry:
                diagnostics.append(diag(
                    "EOF306",
                    f"metric {first.value!r} is not declared in "
                    f"repro.obs.metrics.METRIC_REGISTRY",
                    where=f"{rel_path}:{node.lineno}",
                    severity=SEV_ERROR, metric=first.value))
        if check_frozen and isinstance(node, ast.ClassDef):
            for decorator in node.decorator_list:
                if isinstance(decorator, ast.Name) and \
                        decorator.id == "dataclass":
                    frozen = False
                elif isinstance(decorator, ast.Call) and \
                        isinstance(decorator.func, ast.Name) and \
                        decorator.func.id == "dataclass":
                    frozen = any(kw.arg == "frozen"
                                 and isinstance(kw.value, ast.Constant)
                                 and kw.value.value is True
                                 for kw in decorator.keywords)
                else:
                    continue
                if not frozen:
                    diagnostics.append(diag(
                        "EOF304",
                        f"dataclass {node.name} in the spec model must "
                        f"be frozen=True (spec nodes are shared and "
                        f"must be immutable)",
                        where=f"{rel_path}:{node.lineno}",
                        severity=SEV_ERROR, cls=node.name))
        if check_atomic and isinstance(node, ast.Call) and node.args:
            mode = _open_write_mode(node)
            if mode is not None:
                artifact = _artifact_name(node.args[0], constants)
                if artifact is not None:
                    diagnostics.append(diag(
                        "EOF307",
                        f"bare open(..., {mode!r}) writes persistent "
                        f"artifact {artifact!r}; use the repro.db.io "
                        f"atomic helpers so a kill never leaves a "
                        f"torn file",
                        where=f"{rel_path}:{node.lineno}",
                        severity=SEV_ERROR, artifact=artifact,
                        mode=mode))
        threading_module = _threading_import(node)
        if threading_module is not None:
            diagnostics.append(diag(
                "EOF308",
                f"import of {threading_module} — the tree runs on one "
                f"thread; parallel work belongs in a child process",
                where=f"{rel_path}:{node.lineno}",
                severity=SEV_ERROR, module=threading_module))
    return diagnostics


def default_lint_root() -> str:
    """The ``src/repro`` package directory this module ships in."""
    import repro
    return os.path.dirname(os.path.abspath(repro.__file__))


def lint_sources(paths: Optional[Sequence[str]] = None) -> AnalysisReport:
    """Run every EOF3xx rule over the given files/directories.

    Defaults to the installed ``repro`` package tree, which is what
    ``eof-fuzz lint`` and the CI gate check.
    """
    if not paths:
        paths = [default_lint_root()]
    root = os.path.commonpath([os.path.abspath(p) for p in paths]) \
        if len(paths) > 1 else os.path.abspath(paths[0])
    if os.path.isfile(root):
        root = os.path.dirname(root)
    registry = _event_registry()
    metric_registry = _metric_registry()
    report = AnalysisReport(target="lint")
    files = 0
    for path in _iter_python_files([os.path.abspath(p) for p in paths]):
        files += 1
        rel_path = _rel(path, root)
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            report.add(diag(
                "EOF305",
                f"file does not parse: {exc.msg}",
                where=f"{rel_path}:{exc.lineno or 0}",
                severity=SEV_ERROR))
            continue
        report.extend(_lint_tree(tree, rel_path, registry, metric_registry))
    report.summary = {"lint.files": files,
                      "lint.rules": sum(1 for code in CODE_TABLE
                                        if code.startswith("EOF3")),
                      "lint.diagnostics": len(report.diagnostics)}
    return report
