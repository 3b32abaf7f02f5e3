"""The unified link layer: transport semantics, batching, cache,
delta drain — and the engine's link-cost gate.

The engine batches program injection and drains coverage in one
exchange; the cost gate holds it at <= 60% of the link transactions per
program that the historical one-command-per-round-trip path needed
(a frozen measurement: that path no longer exists).
"""

from __future__ import annotations

import pytest

from conftest import cached_build, boot_target
from repro.ddi.session import open_session
from repro.errors import DebugLinkError, ProtocolError
from repro.fuzz.engine import EngineOptions, EofEngine
from repro.link import (
    Command,
    DebugLink,
    DebugPortTransport,
    decode_batch,
    encode_batch,
)
from repro.link.codec import (
    OP_COV_DRAIN,
    OP_NAMES,
    OP_READ_U32,
    OP_WRITE_U32,
    encode_command,
)
from repro.spec.llmgen import generate_validated_specs


def link_session(os_name="pokos", board="qemu-virt"):
    build = cached_build(os_name, board)
    return open_session(build)


# -- transport ----------------------------------------------------------------


class TestTransport:
    def test_single_command_is_one_transaction(self):
        session = link_session()
        link = session.link
        before = link.transactions
        addr = session.build.ram_layout.status_addr
        session.link.read_u32(addr)
        assert link.transactions == before + 1

    def test_batch_is_one_transaction(self):
        session = link_session()
        link = session.link
        layout = session.build.ram_layout
        before = link.transactions
        with session.link.batch():
            session.link.write_u32(layout.input_buf_addr, 4)
            session.link.write_memory(layout.input_buf_addr + 4, b"abcd")
            pending = session.link.read_memory(layout.input_buf_addr + 4, 4)
        assert link.transactions == before + 1
        assert pending.result() == b"abcd"

    def test_bytes_accounting_moves_both_directions(self):
        session = link_session()
        link = session.link
        session.link.read_memory(session.build.ram_layout.cov_buf_addr, 64)
        assert link.transport.bytes_out > 0
        assert link.transport.bytes_in > 64  # payload + frame overhead
        assert link.bytes_moved == \
            link.transport.bytes_out + link.transport.bytes_in

    def test_unknown_opcode_rejected(self):
        session = link_session()
        with pytest.raises(ProtocolError, match="opcode"):
            session.link.transport.transact([Command(op=99)])

    def test_same_underlying_primitives_either_way(self):
        """A batch of N commands drives the raw port exactly like N
        single-command transactions — the byte-identical-results
        invariant at its root."""
        a = link_session()
        b = link_session()
        layout = a.build.ram_layout
        ops_before_a = a.port.op_count
        ops_before_b = b.port.op_count
        with a.link.batch():
            a.link.write_u32(layout.input_buf_addr, 7)
            a.link.read_u32(layout.input_buf_addr)
        b.link.write_u32(layout.input_buf_addr, 7)
        b.link.read_u32(layout.input_buf_addr)
        assert (a.port.op_count - ops_before_a) == \
            (b.port.op_count - ops_before_b)
        assert a.board.memory.read_u32(layout.input_buf_addr) == \
            b.board.memory.read_u32(layout.input_buf_addr)


# -- batching semantics -------------------------------------------------------


class TestBatching:
    def test_pending_reply_before_flush_raises(self):
        session = link_session()
        layout = session.build.ram_layout
        with session.link.batch():
            pending = session.link.read_u32(layout.status_addr)
            with pytest.raises(DebugLinkError, match="before the batch"):
                pending.result()
        assert isinstance(pending.result(), int)

    def test_reply_order_matches_command_order(self):
        session = link_session()
        layout = session.build.ram_layout
        addr = layout.input_buf_addr
        session.link.write_memory(addr, bytes(range(16)))
        with session.link.batch():
            first = session.link.read_u32(addr)
            second = session.link.read_u32(addr + 4)
            third = session.link.read_memory(addr + 8, 4)
        assert first.result() == int.from_bytes(bytes(range(4)), "little")
        assert second.result() == int.from_bytes(bytes(range(4, 8)), "little")
        assert third.result() == bytes(range(8, 12))

    def test_nested_batches_join_the_outer_one(self):
        session = link_session()
        layout = session.build.ram_layout
        before = session.link.transactions
        with session.link.batch():
            session.link.write_u32(layout.input_buf_addr, 1)
            with session.link.batch():
                session.link.write_u32(layout.input_buf_addr + 4, 2)
            session.link.write_u32(layout.input_buf_addr + 8, 3)
        assert session.link.transactions == before + 1
        for offset, value in ((0, 1), (4, 2), (8, 3)):
            assert session.link.read_u32(layout.input_buf_addr + offset) \
                == value

    def test_body_exception_discards_the_batch(self):
        session = link_session()
        layout = session.build.ram_layout
        marker = layout.input_buf_addr
        session.link.write_u32(marker, 0xAA)
        before = session.link.transactions
        with pytest.raises(RuntimeError):
            with session.link.batch():
                session.link.write_u32(marker, 0xBB)
                raise RuntimeError("host-side bug")
        assert session.link.transactions == before  # nothing was sent
        assert session.link.read_u32(marker) == 0xAA


# -- read-through cache -------------------------------------------------------


class TestCache:
    def test_repeated_read_served_from_cache(self):
        session = link_session()
        link = session.link
        addr = session.build.ram_layout.status_addr
        first = session.link.read_u32(addr)
        transactions = link.transactions
        second = session.link.read_u32(addr)
        assert second == first
        assert link.transactions == transactions  # no link traffic
        assert link.cache_hits >= 1

    def test_overlapping_write_invalidates(self):
        session = link_session()
        link = session.link
        addr = session.build.ram_layout.input_buf_addr
        session.link.write_memory(addr, b"\x01\x02\x03\x04")
        assert session.link.read_memory(addr, 4) == b"\x01\x02\x03\x04"
        session.link.write_u32(addr + 2, 0)  # overlaps the cached range
        transactions = link.transactions
        data = session.link.read_memory(addr, 4)
        assert link.transactions == transactions + 1  # refetched
        assert data[:2] == b"\x01\x02"

    def test_resume_invalidates_everything(self):
        session = link_session()
        link = session.link
        addr = session.build.ram_layout.status_addr
        session.link.read_u32(addr)
        session.link.break_insert(session.build.address_of("executor_main"))
        session.link.exec_continue()
        transactions = link.transactions
        session.link.read_u32(addr)
        assert link.transactions == transactions + 1  # target ran: refetch

    def test_disjoint_write_keeps_cache(self):
        session = link_session()
        link = session.link
        addr = session.build.ram_layout.status_addr
        session.link.read_u32(addr)
        session.link.write_u32(session.build.ram_layout.input_buf_addr, 1)
        transactions = link.transactions
        session.link.read_u32(addr)
        assert link.transactions == transactions  # still cached


# -- delta coverage drain -----------------------------------------------------


def drive_to_completion(session):
    """Boot chatter is consumed; run until the agent idles at its loop."""
    session.link.break_insert(session.build.address_of("executor_main"),
                              label="agent-sync")
    session.link.exec_continue()


class TestDeltaDrain:
    def test_unchanged_buffer_drains_as_none(self):
        session = link_session()
        layout = session.build.ram_layout
        capacity = (layout.cov_buf_size - 4) // 4
        first = session.link.cov_drain(layout.cov_buf_addr, capacity,
                                       gen_addr=layout.cov_gen_addr)
        assert first is not None  # first drain can never be skipped
        second = session.link.cov_drain(layout.cov_buf_addr, capacity,
                                        gen_addr=layout.cov_gen_addr)
        assert second is None  # nothing ran in between

    def test_no_gen_word_always_full_drain(self):
        session = link_session()
        layout = session.build.ram_layout
        capacity = (layout.cov_buf_size - 4) // 4
        for _ in range(2):
            raw = session.link.cov_drain(layout.cov_buf_addr, capacity)
            assert raw is not None

    def test_gen_word_bumps_when_records_land(self):
        target = boot_target("pokos", board="qemu-virt")
        tracer = target.ctx.tracer
        gen_before = target.board.memory.read_u32(tracer.gen_addr)
        tracer.hit(3)
        tracer.hit(5)
        assert target.board.memory.read_u32(tracer.gen_addr) > gen_before


# -- engine link cost: THE acceptance gate -----------------------------------

#: Link transactions per attempted program of the historical
#: one-command-per-round-trip engine path on pokos at seed 7 and 400k
#: cycles, measured before that path was deleted.
UNBATCHED_TXNS_PER_PROGRAM = 9.17


def run_engine(os_name, board, seed=7, budget=400_000):
    build = cached_build(os_name, board)
    spec = generate_validated_specs(build)
    options = EngineOptions(seed=seed, budget_cycles=budget)
    engine = EofEngine(build, spec, options)
    result = engine.run()
    return engine, result


class TestEngineLinkCost:
    def test_transactions_per_program_under_frozen_baseline(self):
        _, result = run_engine("pokos", "qemu-virt")
        attempted = result.stats.programs_executed \
            + result.stats.rejected_programs
        assert attempted > 0
        per_program = result.stats.link_transactions / attempted
        assert per_program <= 0.6 * UNBATCHED_TXNS_PER_PROGRAM, (
            f"batched drain only cut transactions/program from "
            f"{UNBATCHED_TXNS_PER_PROGRAM:.2f} to {per_program:.2f}")

    def test_link_accounting_lands_in_stats(self):
        _, result = run_engine("pokos", "qemu-virt", budget=150_000)
        assert result.stats.link_transactions > 0
        assert result.stats.link_bytes > 0
        data = result.stats.to_dict()
        assert "link_transactions" in data and "link_bytes" in data
        assert "link_transactions" not in result.stats.semantic_dict()


# -- codec smoke (the exhaustive version is property-tested) ------------------


def test_codec_frame_roundtrip_smoke():
    commands = [
        Command(op=OP_WRITE_U32, addr=0x2000_0040, value=0xDEADBEEF),
        Command(op=OP_READ_U32, addr=0x2000_0200),
        Command(op=OP_COV_DRAIN, addr=0x2000_0200, length=4095,
                gen_addr=0x2000_0180, last_gen=0),
    ]
    assert decode_batch(encode_batch(commands)) == commands


def test_codec_rejects_bad_magic():
    raw = bytearray(encode_batch([Command(op=OP_READ_U32)]))
    raw[0] = ord("X")
    with pytest.raises(ProtocolError, match="magic"):
        decode_batch(bytes(raw))


def test_codec_rejects_trailing_bytes():
    raw = encode_batch([Command(op=OP_READ_U32)]) + b"\x00"
    with pytest.raises(ProtocolError, match="trailing"):
        decode_batch(raw)


@pytest.mark.parametrize("op", [15, 16, 17, 18])
def test_codec_knows_only_target_opcodes(op):
    # Campaign traffic between hosts has its own framing (repro.farm.wire);
    # the debug-link codec frames host<->target commands only.
    with pytest.raises(ProtocolError, match="opcode"):
        encode_command(Command(op=op))


def test_every_opcode_name_is_a_link_method():
    # The paper's GDB/OpenOCD vocabulary is the client API: one
    # DebugLink method per opcode, named after it.
    missing = [name for name in OP_NAMES.values()
               if not callable(getattr(DebugLink, name, None))]
    assert missing == []
