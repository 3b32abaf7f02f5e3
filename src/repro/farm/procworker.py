"""The campaign worker: one engine answering the farm wire protocol.

:class:`Worker` answers one coordinator request at a time
(:meth:`Worker.answer`) — ``hello`` with the
:class:`~repro.farm.wire.WorkerSpec`, ``start``, then one ``epoch``
request per sync barrier answered with a delta-only ``epoch_result``,
``deliver`` for cross-worker imports, ``finish`` for the final stats,
``exit``.  Both backends run it: the inline backend calls it on the
coordinator thread through an in-memory frame pair, and the process
backend runs it in a child process (``python -m
repro.farm.procworker``) whose :func:`serve` loop reads the requests
from stdin and writes the replies to stdout.

The worker runs its board through one
:class:`~repro.farm.handles.WorkerCore`, so an epoch result carries
only the delta since the last barrier, and wire traffic scales with
the delta, not the corpus.  :func:`build_engine` is the only way a
campaign engine is built; a spec that names a trace dir gets its own
telemetry bundle, and ``finish`` writes the worker's artifact set.
The untraced path imports no report or render module.  In the child,
``sys.stdout`` is rebound to stderr before the engine boots, so stray
prints can never corrupt a frame.
"""

from __future__ import annotations

import sys
from typing import Dict, Optional

from repro.farm.handles import WorkerCore
from repro.farm.wire import (PipeFrameIO, Reply, WorkerSpec,
                             WorkerTransportError, worker_trace_dir)
from repro.firmware.builder import build_firmware
from repro.fuzz.corpus import entry_from_record
from repro.fuzz.engine import EngineOptions, EofEngine
from repro.fuzz.targets import get_target
from repro.spec.llmgen import generate_validated_specs


def build_engine(spec: WorkerSpec) -> EofEngine:
    """Build and boot the spec's engine, traced into the worker's own
    directory when the spec names a trace dir."""
    obs = None
    if spec.trace_dir:
        from repro.obs.report import open_trace
        obs = open_trace(
            worker_trace_dir(spec.trace_dir, spec.index),
            run_id=f"campaign-{spec.target}-seed{spec.campaign_seed}"
                   f"-w{spec.index}",
            sample_interval=spec.sample_interval)
    build = build_firmware(get_target(spec.target).build_config())
    engine = EofEngine(build, generate_validated_specs(build),
                       EngineOptions(seed=spec.seed,
                                     budget_cycles=spec.budget_cycles,
                                     snapshots=spec.snapshots,
                                     name=spec.name), obs=obs)
    engine.start()
    return engine


class Worker:
    """One worker's side of the protocol: a spec, then its engine."""

    def __init__(self):
        self.spec: Optional[WorkerSpec] = None
        self.core: Optional[WorkerCore] = None

    def answer(self, kind: str, payload: Dict[str, object]) -> Reply:
        """Carry out one request; its reply, if it has one."""
        if kind == "hello":
            self.spec = WorkerSpec.from_dict(dict(payload.get("spec", {})))
            return None
        if self.spec is None:
            return "error", {"message": f"expected hello, got {kind!r}"}
        if kind == "start":
            self.core = WorkerCore(build_engine(self.spec),
                                   self.spec.budget_cycles)
            return "started", {"index": self.spec.index,
                               "cycles": self.core.cycles(),
                               "summary": self.core.summary()}
        core = self.core
        if kind == "epoch":
            status = core.run(int(payload.get("target", 0)))
            return "epoch_result", core.close_epoch(status)
        if kind == "deliver":
            entries = [entry_from_record(dict(record))
                       for record in payload.get("entries", [])]
            core.deliver(entries)
            return "delivered", {"count": len(entries)}
        if kind == "finish":
            result = core.engine.finish()
            if self.spec.trace_dir:
                self._write_artifacts(result.stats)
            return "finished", {
                "name": result.name,
                "os_name": result.os_name,
                "stats": result.stats.to_dict(),
                "edges": sorted(result.coverage.edges),
                "crashes": [report.to_dict() for report
                            in result.crash_db.unique_crashes()],
                "corpus_size": result.corpus_size,
            }
        if kind == "exit":
            return None
        return "error", {"message": f"unknown request {kind!r}"}

    def _write_artifacts(self, stats) -> None:
        """The worker's run directory: a self-contained artifact set."""
        from repro.obs.report import collect_run_data, write_run_artifacts
        spec, obs = self.spec, self.core.engine.obs
        obs.close()
        write_run_artifacts(
            worker_trace_dir(spec.trace_dir, spec.index),
            collect_run_data(obs, stats=stats, meta={
                "target": spec.target, "worker": spec.index,
                "campaign_seed": spec.campaign_seed}))


def serve(io: PipeFrameIO) -> int:
    """Answer coordinator requests until ``exit`` (or transport EOF)."""
    worker = Worker()
    while True:
        kind, payload = io.recv()
        if kind == "exit":
            return 0
        try:
            reply = worker.answer(kind, payload)
        except Exception as exc:  # boot failure -> typed error up
            if kind != "start":
                raise
            reply = "error", {"message": f"{type(exc).__name__}: {exc}"}
        if reply is not None:
            io.send(*reply)
            if reply[0] == "error":
                return 1


def main() -> int:
    io = PipeFrameIO(sys.stdin.buffer, sys.stdout.buffer)
    # Anything the engine (or a stray print) writes to stdout would
    # corrupt the frame stream; reroute the text layer to stderr.
    sys.stdout = sys.stderr
    try:
        return serve(io)
    except WorkerTransportError:
        # The coordinator went away; nothing to report to.
        return 0
    finally:
        io.close()


if __name__ == "__main__":
    sys.exit(main())
