"""Two-clock fuzzing benchmark: host seconds of the EOF loop.

Run from the repository root::

    python3 perfbench/run.py --workload steady-5os --seed 1 --seconds 16 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` runs the same units traced and reports per-layer metrics
and the tracing overhead.  ``--workload all`` runs every workload in
turn.  Human-readable lines come first; the last line of standard
output is one JSON object (``correct``, ``attempted``, ``failed``,
``metrics``).  The exit code is 1 when a correctness check failed and 2
when the program under test cannot be found.  See README.md for the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SCRATCH_PARENT = ROOT / ".perfbench-tmp"


def git_sha(root: Path) -> str:
    """HEAD of the checkout, read from ``.git`` (no git process)."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "none"


def source_digest(src: Path) -> str:
    """Content hash of the measured sources (the sha stand-in when the
    checkout is not a git repository)."""
    sha = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        sha.update(str(path.relative_to(src)).encode())
        sha.update(path.read_bytes())
    return sha.hexdigest()[:16]


def loadavg_1m() -> float:
    return os.getloadavg()[0]


def env_stamp() -> dict:
    affinity = sorted(os.sched_getaffinity(0)) \
        if hasattr(os, "sched_getaffinity") else []
    return {
        "git_sha": git_sha(ROOT),
        "src_digest": source_digest(SRC),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "affinity": affinity,
        "loadavg_1m_start": loadavg_1m(),
    }


def run_workload(workloads, name: str, seed: int, seconds: int,
                 trace: bool):
    workload = workloads.WORKLOADS[name]
    SCRATCH_PARENT.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{name}-", dir=SCRATCH_PARENT)
    try:
        if trace:
            return workloads.measure_traced(workload, seed, seconds,
                                            scratch)
        return workloads.measure(workload, seed, seconds, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            SCRATCH_PARENT.rmdir()
        except OSError:
            pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Host-time benchmark of the EOF fuzzing loop.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=16)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" \
        else [args.workload]
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)} or all")

    env = env_stamp()
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        outcome = run_workload(workloads, name, args.seed, args.seconds,
                               bool(args.trace))
        print(f"== {name} seed={args.seed} seconds={args.seconds} "
              f"trace={args.trace} correct={outcome.correct}")
        for note in outcome.notes:
            print(f"   {note}")
        for metric, (value, unit) in outcome.metrics.items():
            print(f"   {metric:30s} {value:14.6g} {unit}")
            key = metric if len(names) == 1 else f"{name}.{metric}"
            metrics[key] = {"value": value, "unit": unit}
        correct = correct and outcome.correct
        attempted += outcome.attempted
        failed += outcome.failed
    env["loadavg_1m_end"] = loadavg_1m()
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
