"""Property-based invariants of the link layer (hypothesis).

Four contracts the rest of the stack silently leans on:

* the framing codec round-trips every representable command batch,
* replies of a batched transaction line up positionally with their
  commands, whatever the batch shape,
* every read returns what target memory holds, even after the target
  changed it behind the link's back,
* a delta coverage drain returns exactly the records target RAM holds
  (none when it skips), which are the records the tracer landed since
  the last drain, and leaves the buffer's count word at 0.
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from conftest import cached_build  # noqa: E402
from repro.ddi.session import open_session  # noqa: E402
from repro.hw.boards import make_board  # noqa: E402
from repro.hw.debug_port import DebugPort  # noqa: E402
from repro.instrument.sancov import decode_coverage_buffer  # noqa: E402
from repro.link import (  # noqa: E402
    Command,
    DebugLink,
    DebugPortTransport,
    decode_batch,
    encode_batch,
)
from repro.link.codec import (  # noqa: E402
    OP_NAMES,
    OP_READ_MEM,
    OP_READ_U32,
    OP_WRITE_MEM,
    OP_WRITE_U32,
    decode_u16,
    decode_u32,
    encode_u16,
    encode_u32,
)

pytestmark = pytest.mark.property

u32 = st.integers(min_value=0, max_value=0xFFFFFFFF)
u16 = st.integers(min_value=0, max_value=0xFFFF)

commands = st.builds(
    Command,
    op=st.sampled_from(sorted(OP_NAMES)),
    addr=u32,
    value=u32,
    length=u32,
    gen_addr=u32,
    last_gen=st.one_of(st.none(), u32),
    verify=st.booleans(),
    label=st.text(max_size=24),
    data=st.binary(max_size=256),
)


# -- codec round trip ---------------------------------------------------------


@given(u32)
def test_u32_helpers_roundtrip(value):
    assert decode_u32(encode_u32(value)) == value


@given(u16)
def test_u16_helpers_roundtrip(value):
    assert decode_u16(encode_u16(value)) == value


@given(st.lists(commands, max_size=12))
@settings(max_examples=200, deadline=None)
def test_batch_encode_decode_roundtrip(batch):
    assert decode_batch(encode_batch(batch)) == batch


@given(st.lists(commands, min_size=1, max_size=8))
@settings(max_examples=100, deadline=None)
def test_wire_bytes_matches_encoded_size(batch):
    assert len(encode_batch(batch)) == \
        7 + sum(cmd.wire_bytes() for cmd in batch)


# -- batch-reply ordering -----------------------------------------------------


def fresh_link():
    """A powered board with RAM but no firmware: raw memory semantics."""
    board = make_board("qemu-virt")
    board.machine.powered = True
    port = DebugPort(board)
    port.connect()
    return board, DebugLink(DebugPortTransport(port))


# (offset within a 64-word scratch window, value) write/read pairs.
slots = st.lists(
    st.tuples(st.integers(min_value=0, max_value=63), u32),
    min_size=1, max_size=16)


@given(slots)
@settings(max_examples=100, deadline=None)
def test_batched_replies_match_command_order(pairs):
    board, link = fresh_link()
    base = board.ram.base
    for offset, value in pairs:
        link.write_u32(base + offset * 4, value)
    expected = {offset: board.memory.read_u32(base + offset * 4)
                for offset, _ in pairs}
    with link.batch():
        pendings = [(offset, link.read_u32(base + offset * 4))
                    for offset, _ in pairs]
    # Duplicate offsets read the same word twice; order is positional.
    assert [p.result() for _, p in pendings] == \
        [expected[offset] for offset, _ in pendings]


# -- reads never serve stale bytes --------------------------------------------


# A short random op program over a 32-word window: reads must always
# observe the latest write, whatever interleaving of reads and writes
# happened before.
cache_ops = st.lists(
    st.one_of(
        st.tuples(st.just("write"),
                  st.integers(min_value=0, max_value=31), u32),
        st.tuples(st.just("write_mem"),
                  st.integers(min_value=0, max_value=28),
                  st.binary(min_size=1, max_size=16)),
        st.tuples(st.just("read"),
                  st.integers(min_value=0, max_value=31), st.just(0)),
        st.tuples(st.just("read_mem"),
                  st.integers(min_value=0, max_value=24), st.just(0)),
    ),
    min_size=1, max_size=40)


@given(cache_ops)
@settings(max_examples=150, deadline=None)
def test_cache_never_serves_stale_bytes(ops):
    board, link = fresh_link()
    base = board.ram.base
    for op in ops:
        if op[0] == "write":
            link.write_u32(base + op[1] * 4, op[2])
        elif op[0] == "write_mem":
            link.write_memory(base + op[1] * 4, op[2])
        elif op[0] == "read":
            assert link.read_u32(base + op[1] * 4) == \
                board.memory.read_u32(base + op[1] * 4)
        else:
            length = 16
            assert link.read_memory(base + op[1] * 4, length) == \
                board.memory.read(base + op[1] * 4, length)


@given(st.integers(min_value=0, max_value=31), u32, u32)
@settings(max_examples=100, deadline=None)
def test_cache_invalidation_on_direct_target_mutation(slot, before, after):
    """Even when target memory changes *behind the link's back* (the
    core ran), the next read returns what the target holds."""
    board, link = fresh_link()
    addr = board.ram.base + slot * 4
    link.write_u32(addr, before)
    assert link.read_u32(addr) == before
    board.memory.write_u32(addr, after)   # target-side mutation
    assert link.read_u32(addr) == after


# -- delta coverage drain matches target RAM ------------------------------------


# One round = the edge sites the tracer records while the core "runs",
# then the host action that ends the round.  Rounds (not free operation
# lists) keep every example a realistic hit/drain cadence, which is what
# exposes a generation word that stops moving after the first record.
drain_rounds = st.lists(
    st.tuples(
        st.lists(st.integers(min_value=1, max_value=40), max_size=12),
        st.sampled_from(["cov_drain", "reset_run", "forget_drain_state"])),
    min_size=1, max_size=8)


@given(drain_rounds)
# Records land and are drained, twice, across a forgotten drain state.
@example([([3, 5, 7], "cov_drain"), ([9, 3], "forget_drain_state"),
          ([4], "cov_drain")])
@settings(max_examples=60, deadline=None)
def test_delta_drain_returns_exactly_what_target_ram_holds(rounds):
    session = open_session(cached_build("pokos", "qemu-virt"))
    link = session.link
    memory = session.board.memory
    layout = session.build.ram_layout
    capacity = (layout.cov_buf_size - 4) // 4
    # Records the tracer landed since the last drain (boot records
    # included): each must be drained exactly once.
    landed = session.board.runtime.kernel.ctx.tracer.record_count
    for sites, action in rounds:
        # A round is one resume..halt of the core: the tracer takes its
        # write index from RAM, records its hits, and lands them.
        tracer = session.board.runtime.kernel.ctx.tracer
        tracer.resume()
        before = tracer.record_count
        for site in sites:
            tracer.hit(site)
        tracer.land()
        landed += tracer.record_count - before
        if action == "reset_run":
            link.reset_run()
            landed = session.board.runtime.kernel.ctx.tracer.record_count
            continue
        if action == "forget_drain_state":
            link.forget_drain_state()
            continue
        count = memory.read_u32(layout.cov_buf_addr)
        held = decode_coverage_buffer(
            memory.read(layout.cov_buf_addr, 4 + count * 4))
        raw = link.cov_drain(layout.cov_buf_addr, capacity,
                             gen_addr=layout.cov_gen_addr)
        drained = [] if raw is None else decode_coverage_buffer(raw)
        assert drained == held
        assert len(drained) == landed
        assert memory.read_u32(layout.cov_buf_addr) == 0
        landed = 0
