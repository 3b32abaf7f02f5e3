"""Crash-safe file primitives: write-to-temp + fsync + atomic rename.

Every persistent artifact the stack leaves on disk — the campaign
journal's clean rewrite, ``metrics.json``, ``profile.json``, flight
dumps, rendered reports — goes through these helpers, so a kill at any
instant leaves either the complete previous version or the complete
new version of a file, never a torn half-write.  The recipe is the
classic one:

1. write the full payload to a temporary file *in the destination
   directory* (same filesystem, so the rename is atomic),
2. flush and ``fsync`` the temp file (data durable before the rename),
3. ``os.replace`` onto the destination (atomic on POSIX and Windows),
4. best-effort ``fsync`` of the directory so the rename itself is
   durable across power loss.

The ``EOF307`` lint rule (``repro.analysis.lint``) enforces that
persistent-artifact writes inside ``src/repro`` use these helpers
instead of bare ``open(..., "w")`` — append-streamed journals
(``events.jsonl``, ``timeseries.jsonl``, the campaign journal) are the
deliberate exception, with torn-tail-tolerant loaders on the read side.
"""

from __future__ import annotations

import json
import os
import tempfile

__all__ = ["atomic_write_bytes", "atomic_write_text",
           "atomic_write_json", "fsync_directory"]


def fsync_directory(path: str) -> None:
    """Best-effort directory fsync (makes a rename durable).

    Some filesystems/platforms refuse to open directories; losing the
    directory sync there degrades durability, not correctness, so the
    failure is swallowed.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(path: str, data: bytes) -> str:
    """Atomically and durably replace ``path`` with ``data``; returns
    ``path``."""
    path = str(path)
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(
        dir=directory, prefix="." + os.path.basename(path) + ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    fsync_directory(directory)
    return path


def atomic_write_text(path: str, text: str,
                      ensure_newline: bool = False) -> str:
    """Atomically replace ``path`` with UTF-8 ``text``.

    ``ensure_newline`` appends a trailing newline when the payload lacks
    one (artifact files are newline-terminated by convention).
    """
    if ensure_newline and text and not text.endswith("\n"):
        text += "\n"
    return atomic_write_bytes(path, text.encode("utf-8"))


def atomic_write_json(path: str, payload: object, indent: int = 2) -> str:
    """Atomically replace ``path`` with a JSON rendering of ``payload``."""
    text = json.dumps(payload, indent=indent, default=str) + "\n"
    return atomic_write_bytes(path, text.encode("utf-8"))
