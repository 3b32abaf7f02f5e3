"""Layer tracing from outside the program.

The benchmark never edits the code it measures.  For a traced run it
replaces the public entry points of each layer with thin wrappers that
either time a span or only count calls, runs the workload, and puts
the originals back.  Spans are aggregated in memory per name (calls,
inclusive seconds, self seconds) and turned into metrics once, at the
end of the run.

Self time is a span's duration minus the time its child spans cover.
The span stack is a single list, so a traced run must drive the
program from one thread; every workload does (the campaign uses the
process backend, whose coordinator is single-threaded).

Per-edge and per-word hooks (``SancovTracer.hit``, the ``MemoryRegion``
accessors) are counters only: timing them would cost more than the
work they wrap and swamp the spans around them.
"""

from __future__ import annotations

import sys
from time import perf_counter
from typing import Callable, Dict, List, Optional


class SpanStats:
    """Aggregate of every span of one name."""

    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class LayerTracer:
    """Installs wrappers, keeps the span stack and the aggregates."""

    def __init__(self):
        self.spans: Dict[str, SpanStats] = {}
        self.counts: Dict[str, int] = {}
        # One frame per open span: seconds its children covered so far.
        self._stack: List[List[float]] = []
        self._undo: List[Callable[[], None]] = []

    # -- aggregation ------------------------------------------------------

    def span(self, name: str) -> SpanStats:
        stats = self.spans.get(name)
        if stats is None:
            stats = self.spans[name] = SpanStats()
        return stats

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    # -- wrapper factories ------------------------------------------------

    def timed(self, name: str, fn: Callable,
              after: Optional[Callable] = None) -> Callable:
        """Wrap ``fn`` in a span; ``after(args, result)`` may count."""
        stack = self._stack
        stats = self.span(name)

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        """Wrap ``fn`` with a call counter and no clock reads."""
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -----------------------------------------------------

    def patch_method(self, cls, attr: str, make: Callable) -> None:
        """Replace ``cls.attr`` (defined on ``cls`` itself) with
        ``make(original)`` until :meth:`uninstall`."""
        original = cls.__dict__[attr]
        setattr(cls, attr, make(original))
        self._undo.append(lambda: setattr(cls, attr, original))

    def patch_function(self, module, attr: str, make: Callable) -> None:
        """Replace a module-level function everywhere it was imported
        by name, so ``from x import f`` call sites see the wrapper."""
        original = getattr(module, attr)
        wrapper = make(original)
        holders = [mod for mod in list(sys.modules.values())
                   if mod is not None
                   and getattr(mod, attr, None) is original]
        for mod in holders:
            setattr(mod, attr, wrapper)
        self._undo.append(
            lambda: [setattr(mod, attr, original) for mod in holders])

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()


def install_layer_hooks(tracer: LayerTracer) -> None:
    """Wrap every layer entry point the per-layer metrics name."""
    from repro.agent import protocol
    from repro.analysis import reach
    from repro.db.store import CampaignStore
    from repro.farm import handles
    from repro.farm.state import CampaignState
    from repro.farm.wire import PipeFrameIO
    from repro.firmware import builder
    from repro.fuzz.corpus import Corpus
    from repro.fuzz.engine import EofEngine
    from repro.fuzz.feedback import CoverageMap
    from repro.fuzz.generator import ProgramGenerator
    from repro.fuzz.monitors import ExceptionMonitor, LogMonitor
    from repro.fuzz.mutator import ProgramMutator
    from repro.fuzz.restore import RecoveryLadder, StateRestoration
    from repro.fuzz.snapshot import SnapshotManager
    from repro.hw.board import Board
    from repro.hw.memory import Flash, MemoryRegion, Ram
    from repro.instrument import sancov
    from repro.link import transport
    from repro.obs import Observability
    from repro.spec import llmgen

    t = tracer
    timed = t.timed

    # Set-up phases.
    t.patch_function(builder, "build_firmware",
                     lambda fn: timed("firmware.build", fn))
    t.patch_function(llmgen, "generate_validated_specs",
                     lambda fn: timed("spec.gen", fn))
    t.patch_function(reach, "reachable_edge_universe",
                     lambda fn: timed("analysis.reach", fn))
    t.patch_method(EofEngine, "start", lambda fn: timed("engine.start", fn))

    # The loop and the layers under it.
    t.patch_method(EofEngine, "run_until", lambda fn: timed("engine", fn))
    t.patch_method(ProgramGenerator, "generate",
                   lambda fn: timed("fuzz.generator", fn))
    t.patch_method(ProgramMutator, "mutate",
                   lambda fn: timed("fuzz.mutator", fn))
    t.patch_method(ProgramMutator, "splice",
                   lambda fn: timed("fuzz.mutator", fn))
    t.patch_function(protocol, "serialize_program",
                     lambda fn: timed("agent.serialize", fn))

    def decoded(args, result):
        t.count("instrument.decode.records", len(result))

    t.patch_function(sancov, "decode_coverage_buffer",
                     lambda fn: timed("instrument.decode", fn, decoded))
    t.patch_method(sancov.SancovTracer, "hit",
                   lambda fn: t.counted("instrument.sancov.hits", fn))

    def add_new(fn):
        span = timed("fuzz.feedback.add_new", fn, lambda a, r: t.count(
            "fuzz.feedback.fresh", len(r)))

        def wrapper(self, edges):
            edges = edges if isinstance(edges, list) else list(edges)
            t.count("fuzz.feedback.offered", len(edges))
            return span(self, edges)
        return wrapper

    t.patch_method(CoverageMap, "add_new", add_new)

    t.patch_method(Board, "resume", lambda fn: timed("hw.resume", fn))
    for cls in (MemoryRegion, Ram, Flash):
        for attr in ("read", "write", "read_u32", "write_u32"):
            if attr in cls.__dict__:
                t.patch_method(cls, attr,
                               lambda fn: t.counted("hw.mem.calls", fn))

    def transacted(args, replies):
        commands = args[1]
        t.count("link.commands", len(commands))
        t.count("link.bytes", transport.command_wire_bytes(commands)
                + transport.reply_wire_bytes(replies))

    t.patch_method(transport.DebugPortTransport, "transact",
                   lambda fn: timed("link", fn, transacted))

    t.patch_method(SnapshotManager, "restore",
                   lambda fn: timed("fuzz.snapshot.restore", fn))
    t.patch_method(Board, "restore_runtime_image",
                   lambda fn: timed("hw.runtime_image.restore", fn))
    t.patch_method(Corpus, "add", lambda fn: timed("fuzz.corpus", fn))
    t.patch_method(Corpus, "pick", lambda fn: timed("fuzz.corpus", fn))
    t.patch_method(LogMonitor, "scan", lambda fn: timed("fuzz.monitors", fn))
    t.patch_method(ExceptionMonitor, "capture",
                   lambda fn: timed("fuzz.monitors", fn))
    t.patch_method(RecoveryLadder, "recover",
                   lambda fn: timed("fuzz.restore", fn))
    t.patch_method(StateRestoration, "restore",
                   lambda fn: timed("fuzz.restore.reflash", fn))

    # Campaign coordinator (the workers run in their own processes).
    remote = handles._RemoteHandle
    t.patch_method(remote, "join_start", lambda fn: timed("farm.start", fn))
    t.patch_method(remote, "join_epoch", lambda fn: timed("farm.barrier", fn))

    def framed(args, result):
        io = args[0]
        t.count("farm.wire.bytes", io.last_frame_bytes)

    t.patch_method(PipeFrameIO, "send",
                   lambda fn: timed("farm.wire", fn, framed))
    t.patch_method(PipeFrameIO, "recv",
                   lambda fn: timed("farm.wire", fn, framed))
    # Blocking reads are waiting for a worker, not wire work: a child
    # span keeps them out of ``farm.wire`` self time.
    t.patch_method(PipeFrameIO, "_read_exact",
                   lambda fn: timed("farm.wire.read", fn))
    t.patch_method(CampaignState, "push",
                   lambda fn: timed("farm.state.push", fn))
    t.patch_method(CampaignState, "pull",
                   lambda fn: timed("farm.state.pull", fn))
    t.patch_method(CampaignStore, "record_epoch",
                   lambda fn: timed("db.record_epoch", fn))

    t.patch_method(Observability, "emit", lambda fn: timed("obs.emit", fn))
