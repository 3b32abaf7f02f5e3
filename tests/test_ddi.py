"""Host-side debug interface: the debug session and its link commands."""

import pytest

from repro.ddi.session import DebugSession, open_session
from repro.errors import DebugLinkError, DebugLinkTimeout
from repro.hw.boards import make_board

from conftest import cached_build


def fresh_session(os_name="freertos", board="stm32f407"):
    return open_session(cached_build(os_name, board))


class TestProbe:
    def test_connect_requires_power(self):
        board = make_board("stm32f407")
        session = DebugSession(board, cached_build("freertos"))
        with pytest.raises(DebugLinkTimeout):
            session.port.connect()

    def test_flash_write_verifies(self):
        session = fresh_session()
        target = session.board.flash.base + 0x8000
        session.link.flash_write(target, b"\x01\x02\x03\x04")
        assert session.board.flash.read(target, 4) == b"\x01\x02\x03\x04"

    def test_operations_require_session(self):
        board = make_board("stm32f407")
        board.power_on()
        session = DebugSession(board, cached_build("freertos"))
        with pytest.raises(DebugLinkTimeout):
            session.drain_uart()

    def test_uart_drain_is_incremental(self):
        session = fresh_session()
        first = session.drain_uart()
        assert first  # boot banner
        assert session.drain_uart() == []


class TestLinkCommands:
    def test_unknown_symbol_rejected(self):
        session = fresh_session()
        with pytest.raises(DebugLinkError):
            session.link.break_insert(session.build.address_of("not_a_symbol"))

    def test_breakpoint_roundtrip(self):
        session = fresh_session()
        address = session.build.address_of("executor_main")
        session.link.break_insert(address)
        assert session.board.machine.breakpoint_at(
            session.build.address_of("executor_main"))
        session.link.break_delete(address)
        assert not session.board.machine.breakpoint_at(
            session.build.address_of("executor_main"))

    def test_memory_rw(self):
        session = fresh_session()
        addr = session.build.ram_layout.input_buf_addr
        session.link.write_memory(addr, b"probe")
        assert session.link.read_memory(addr, 5) == b"probe"
        session.link.write_u32(addr, 0xAABBCCDD)
        assert session.link.read_u32(addr) == 0xAABBCCDD

    def test_read_pc_tracks_halts(self):
        session = fresh_session()
        event = session.link.exec_continue()
        assert session.link.read_pc() == event.pc


class TestSessionRestore:
    def test_flash_and_reboot_restores_corrupted_image(self):
        session = fresh_session()
        build = session.build
        kernel = next(p for p in build.partitions if p.name == "kernel")
        session.board.flash.write(
            session.board.flash.base + kernel.offset + 64, b"\x00\x00")
        session.reboot()
        assert session.board.boot_failed
        payload, offset = build.partition_map()["kernel"]
        session.flash(payload, offset)
        session.flash_header()
        session.reboot()
        assert not session.board.boot_failed
