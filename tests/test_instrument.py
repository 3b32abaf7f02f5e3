"""Coverage instrumentation: site allocation, tracer, buffer protocol."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.hw.memory import Ram
from repro.instrument.sancov import (
    COV_HEADER_BYTES,
    SancovTracer,
    decode_coverage_buffer,
    edge_id,
)
from repro.instrument.sites import SiteAllocator, SiteInfo, SiteTable


def make_tracer(buf_size=64, modules=None, enabled=True):
    allocator = SiteAllocator()
    allocator.allocate("fn_a", "kernel", 4)
    allocator.allocate("fn_b", "json", 4)
    ram = Ram("ram", 0x1000, 4096)
    tracer = SancovTracer(ram, 0x1000, buf_size, allocator.table,
                          enabled_modules=modules, enabled=enabled)
    tracer.clear()
    return tracer, allocator.table, ram


class TestSiteAllocation:
    def test_blocks_are_contiguous_and_disjoint(self):
        allocator = SiteAllocator()
        a = allocator.allocate("a", "m", 5)
        b = allocator.allocate("b", "m", 3)
        assert a.base + a.count == b.base
        assert a.base >= 1  # site 0 is the no-previous sentinel

    def test_duplicate_symbol_rejected(self):
        allocator = SiteAllocator()
        allocator.allocate("a", "m", 2)
        with pytest.raises(ValueError):
            allocator.table.add(SiteInfo("a", "m", 100, 2))

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            SiteAllocator().allocate("a", "m", 0)

    def test_reverse_lookup(self):
        allocator = SiteAllocator()
        info = allocator.allocate("fn", "mod", 4)
        assert allocator.table.symbol_of_site(info.base + 2) == "fn"
        assert allocator.table.symbol_of_site(9999) is None

    def test_sub_site_out_of_range_wraps(self):
        info = SiteInfo("fn", "m", 10, 4)
        assert info.site(0) == 10
        assert info.site(3) == 13
        assert 10 <= info.site(7) < 14  # clamped, not out of block


class TestTracer:
    def test_edges_encode_previous_site(self):
        tracer, table, _ = make_tracer()
        a = table.for_symbol("fn_a")
        tracer.hit(a.site(0))
        tracer.hit(a.site(1))
        tracer.land()
        edges = decode_coverage_buffer(
            tracer.ram.read(tracer.buf_addr, tracer.buf_size))
        assert edges == [edge_id(0, a.site(0)),
                         edge_id(a.site(0), a.site(1))]

    def test_consecutive_identical_edges_collapsed(self):
        tracer, table, _ = make_tracer()
        a = table.for_symbol("fn_a")
        tracer.reset_run_state()
        tracer.hit(a.site(1))
        count_after_one = tracer.record_count
        # A tight loop: same edge again and again.
        for _ in range(5):
            tracer.prev_site = 0
            tracer.hit(a.site(1))
        assert tracer.record_count == count_after_one

    def test_buffer_full_sets_trap(self):
        tracer, table, _ = make_tracer(buf_size=COV_HEADER_BYTES + 8)
        a = table.for_symbol("fn_a")
        for sub in (0, 1, 2):
            tracer.hit(a.site(sub))
        assert tracer.trap_pending
        assert tracer.dropped_hits >= 1

    def test_clear_resets_trap_and_count(self):
        tracer, table, _ = make_tracer(buf_size=COV_HEADER_BYTES + 8)
        a = table.for_symbol("fn_a")
        for sub in (0, 1, 2):
            tracer.hit(a.site(sub))
        tracer.clear()
        assert not tracer.trap_pending
        assert tracer.record_count == 0
        assert tracer.ram.read_u32(tracer.buf_addr) == 0

    def test_module_filter(self):
        tracer, table, _ = make_tracer(modules={"json"})
        assert tracer.module_enabled("json")
        assert not tracer.module_enabled("kernel")

    def test_disabled_tracer_enables_nothing(self):
        tracer, _, _ = make_tracer(enabled=False)
        assert not tracer.module_enabled("json")

    def test_reset_run_state_restarts_edge_chain(self):
        tracer, table, _ = make_tracer()
        a = table.for_symbol("fn_a")
        tracer.hit(a.site(0))
        tracer.reset_run_state()
        tracer.hit(a.site(0))
        tracer.land()
        # Both runs record the same entry edge; dedup happens host-side.
        edges = decode_coverage_buffer(
            tracer.ram.read(tracer.buf_addr, tracer.buf_size))
        assert edges == [edge_id(0, a.site(0))] * 2


class TestBufferDecode:
    def test_decode_empty(self):
        assert decode_coverage_buffer(b"") == []
        assert decode_coverage_buffer(b"\x00\x00\x00\x00") == []

    def test_decode_clamps_count_to_payload(self):
        raw = (100).to_bytes(4, "little") + (7).to_bytes(4, "little")
        assert decode_coverage_buffer(raw) == [7]

    @given(st.lists(st.integers(0, 0xFFFFFFFF), max_size=20))
    @settings(max_examples=30, deadline=None)
    def test_decode_roundtrip(self, edges):
        raw = len(edges).to_bytes(4, "little") + b"".join(
            e.to_bytes(4, "little") for e in edges)
        assert decode_coverage_buffer(raw) == edges

    @given(st.integers(0, 0xFFFF), st.integers(0, 0xFFFF))
    @settings(max_examples=50, deadline=None)
    def test_edge_id_is_injective_for_site_pairs(self, a, b):
        assert edge_id(a, b) == (a << 16) | b
