"""Property-based invariants of snapshot capture/restore (hypothesis).

Three contracts the recovery ladder leans on:

* restore is *total*: after any sequence of link writes into RAM, one
  restore brings every byte back to the captured image,
* the dirty-page log never under-approximates: the set of dirty pages
  is a superset of the pages the writes actually touched,
* restore is idempotent: a second restore with no intervening writes
  writes zero pages and leaves RAM untouched.
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.ddi.session import open_session  # noqa: E402
from repro.fuzz.snapshot import SnapshotManager  # noqa: E402
from repro.link.client import pages_for_range  # noqa: E402

from conftest import cached_build  # noqa: E402

pytestmark = pytest.mark.property

#: One session + captured snapshot shared across examples — sound
#: because every example ends with a verified restore to the captured
#: image, which is exactly the state the next example starts from.
_STATE = {}


def snapshot_state():
    if not _STATE:
        session = open_session(cached_build("freertos"))
        session.drain_uart()
        manager = SnapshotManager(session)
        assert manager.capture()
        _STATE["session"] = session
        _STATE["manager"] = manager
        _STATE["image"] = session.board.ram.snapshot()
    return _STATE["session"], _STATE["manager"], _STATE["image"]


writes = st.lists(
    st.tuples(st.integers(min_value=0, max_value=0xFFFF),
              st.binary(min_size=1, max_size=256)),
    min_size=1, max_size=8)


def apply_writes(session, write_list):
    """Replay drawn (offset, data) pairs as link writes, clipped to RAM."""
    ram = session.board.ram
    touched = set()
    for offset, data in write_list:
        addr = ram.base + (offset % (ram.size - len(data)))
        session.link.write_memory(addr, data)
        touched.update(pages_for_range(addr, len(data)))
    return touched


@given(writes)
@settings(max_examples=40, deadline=None)
def test_restore_undoes_arbitrary_writes(write_list):
    session, manager, image = snapshot_state()
    apply_writes(session, write_list)
    assert manager.restore()
    assert session.board.ram.snapshot() == image


@given(writes)
@settings(max_examples=40, deadline=None)
def test_dirty_log_is_a_superset_of_touched_pages(write_list):
    session, manager, image = snapshot_state()
    touched = apply_writes(session, write_list)
    assert session.link.dirty_pages() >= touched
    assert manager.restore()  # leave the shared state clean


@given(writes)
@settings(max_examples=25, deadline=None)
def test_restore_is_idempotent(write_list):
    session, manager, image = snapshot_state()
    apply_writes(session, write_list)
    assert manager.restore()
    pages_after_first = manager.pages_written
    assert manager.restore()
    assert manager.pages_written == pages_after_first  # zero pages written
    assert session.board.ram.snapshot() == image
