"""Campaign worker child process (``python -m repro.farm.procworker``).

One engine per process: the coordinator spawns this module, hands it a
:class:`~repro.farm.wire.WorkerSpec`, and drives it through the farm
wire protocol over stdin/stdout — ``hello``/``start``, then one
``epoch`` request per sync barrier answered with a delta-only
``epoch_result``, ``deliver`` for cross-worker imports, ``finish`` for
the final stats, ``exit``.

The child runs its board through the same
:class:`~repro.farm.handles.WorkerCore` the inline backend uses, so
an epoch result carries exactly the delta an inline barrier takes,
so wire traffic scales with the delta, not the corpus.  This module only
builds the engine from the spec and encodes the replies.
``sys.stdout`` is rebound to stderr before the engine boots so stray
prints can never corrupt a frame.
"""

from __future__ import annotations

import sys
from typing import Optional

from repro.farm.handles import WorkerCore, encode_outcome
from repro.farm.wire import PipeFrameIO, WorkerSpec, WorkerTransportError
from repro.firmware.builder import build_firmware
from repro.fuzz.corpus import entry_from_record
from repro.fuzz.engine import EngineOptions, EofEngine
from repro.fuzz.targets import get_target
from repro.spec.llmgen import generate_validated_specs


def build_engine(spec: WorkerSpec) -> EofEngine:
    """Build and boot the spec's engine, as the inline backend's
    engine factory does."""
    build = build_firmware(get_target(spec.target).build_config())
    engine = EofEngine(build, generate_validated_specs(build),
                       EngineOptions(seed=spec.seed,
                                     budget_cycles=spec.budget_cycles,
                                     snapshots=spec.snapshots,
                                     name=spec.name))
    engine.start()
    return engine


def serve(io: PipeFrameIO) -> int:
    """Answer coordinator requests until ``exit`` (or transport EOF)."""
    kind, payload = io.recv()
    if kind != "hello":
        io.send("error", {"message": f"expected hello, got {kind!r}"})
        return 1
    spec = WorkerSpec.from_dict(dict(payload.get("spec", {})))
    core: Optional[WorkerCore] = None
    while True:
        kind, payload = io.recv()
        if kind == "start":
            try:
                core = WorkerCore(build_engine(spec), spec.budget_cycles)
            except Exception as exc:  # boot failure -> typed error up
                io.send("error", {"message": f"{type(exc).__name__}: "
                                             f"{exc}"})
                return 1
            io.send("started", {"index": spec.index})
        elif kind == "epoch":
            status = core.run(int(payload.get("target", 0)))
            io.send("epoch_result",
                    encode_outcome(core.close_epoch(status)))
        elif kind == "deliver":
            entries = [entry_from_record(dict(record))
                       for record in payload.get("entries", [])]
            core.deliver(entries)
            io.send("delivered", {"count": len(entries)})
        elif kind == "finish":
            result = core.engine.finish()
            io.send("finished", {
                "name": result.name,
                "os_name": result.os_name,
                "stats": result.stats.to_dict(),
                "edges": sorted(result.coverage.edges),
                "crashes": [report.to_dict() for report
                            in result.crash_db.unique_crashes()],
                "corpus_size": result.corpus_size,
            })
        elif kind == "exit":
            return 0
        else:
            io.send("error", {"message": f"unknown request {kind!r}"})
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
