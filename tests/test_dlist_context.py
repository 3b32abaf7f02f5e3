"""The intrusive list and the kernel HAL context."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import KernelPanic, TargetSignal
from repro.instrument.sancov import TRACE_CYCLE_COST
from repro.oses.common.api import kfunc
from repro.oses.common.dlist import DList, DListNode

from conftest import boot_target


class TestDList:
    def test_new_list_is_empty(self):
        dlist = DList()
        assert dlist.is_empty()
        assert len(dlist) == 0

    def test_push_pop_front_is_lifo(self):
        dlist = DList()
        a, b = DListNode("a"), DListNode("b")
        dlist.push_front(a)
        dlist.push_front(b)
        assert dlist.pop_front() is b
        assert dlist.pop_front() is a
        assert dlist.pop_front() is None

    def test_push_back_is_fifo(self):
        dlist = DList()
        nodes = [DListNode(i) for i in range(4)]
        for node in nodes:
            dlist.push_back(node)
        assert [n.owner for n in dlist] == [0, 1, 2, 3]

    def test_remove_middle(self):
        dlist = DList()
        nodes = [DListNode(i) for i in range(3)]
        for node in nodes:
            dlist.push_back(node)
        dlist.remove(nodes[1])
        assert [n.owner for n in dlist] == [0, 2]
        assert not nodes[1].is_linked()

    def test_unlink_free_node_is_harmless(self):
        node = DListNode()
        node.unlink()
        assert not node.is_linked()

    def test_iteration_allows_unlinking(self):
        dlist = DList()
        nodes = [DListNode(i) for i in range(5)]
        for node in nodes:
            dlist.push_back(node)
        for node in dlist:
            if node.owner % 2 == 0:
                node.unlink()
        assert [n.owner for n in dlist] == [1, 3]

    @given(st.lists(st.sampled_from(["front", "back", "pop"]),
                    max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_ring_stays_consistent(self, ops):
        dlist = DList()
        count = 0
        for op in ops:
            if op == "front":
                dlist.push_front(DListNode())
                count += 1
            elif op == "back":
                dlist.push_back(DListNode())
                count += 1
            elif count:
                dlist.pop_front()
                count -= 1
            assert dlist.check_consistency()
            assert len(dlist) == count


class TestKernelContext:
    def test_frame_moves_pc_and_restores(self, freertos):
        ctx = freertos.ctx
        machine = freertos.board.machine
        outer_pc = machine.pc
        with ctx.frame("xQueueCreate", "ipc"):
            assert machine.pc == ctx.addresses["xQueueCreate"]
        assert machine.stack_depth() == 0 or machine.pc != \
            ctx.addresses["xQueueCreate"]

    def test_crash_freezes_frames_for_backtrace(self, freertos):
        ctx = freertos.ctx
        machine = freertos.board.machine
        depth_before = machine.stack_depth()
        with pytest.raises(KernelPanic):
            with ctx.frame("load_partitions", "kernel"):
                ctx.panic("test", "frozen frames")
        assert machine.stack_depth() == depth_before + 1
        assert machine.backtrace()[0].symbol == "load_partitions"
        ctx.drop_frames_to(depth_before)
        assert machine.stack_depth() == depth_before

    def test_cov_needs_an_active_frame(self, freertos):
        freertos.ctx.cov(1)  # no frame: silently ignored

    def test_kprintf_reaches_uart(self, freertos):
        freertos.ctx.kprintf("hal hello")
        lines, _ = freertos.board.uart_read(0)
        assert "hal hello" in lines

    def test_negative_cycles_ignored(self, freertos):
        before = freertos.board.machine.cycles
        freertos.ctx.cycles(-100)
        assert freertos.board.machine.cycles == before

    def test_record_crash_block_roundtrip(self, freertos):
        from repro.oses.common.context import CRASH_MAGIC
        ctx = freertos.ctx
        ctx.record_crash(2, "some cause text")
        base = ctx.layout.crash_addr
        assert freertos.board.ram.read_u32(base) == CRASH_MAGIC
        assert freertos.board.ram.read_u32(base + 4) == 2
        length = freertos.board.ram.read_u32(base + 8)
        assert freertos.board.ram.read(base + 12, length) == \
            b"some cause text"

    def test_block_breakpoints_batch_hits(self, freertos):
        ctx = freertos.ctx
        kernel = freertos.kernel
        machine = freertos.board.machine
        # Break on block 1 of xQueueCreate (the length<=0 branch).
        block = ctx.addresses["xQueueCreate"] + 4 * 1
        machine.set_breakpoint(block, "block")
        kernel.xQueueCreate(0, 8)   # takes the rejected branch
        assert block in ctx.bp_hits


class _Probe:
    """An empty function run through the real ``@kfunc`` wrapper.

    It borrows the freertos symbol ``xQueueCreate`` (module ``ipc``), so
    the prologue finds that symbol's address and site block, and its
    body charges nothing, so a test sees the prologue's charge alone.
    """

    def __init__(self, ctx):
        self.ctx = ctx

    @kfunc(module="ipc")
    def xQueueCreate(self, error=None):
        if error is not None:
            raise error


class TestKfuncFrames:
    """The ``@kfunc`` prologue and epilogue exit rules, through real calls."""

    def test_normal_return_pops_both_stacks(self, freertos):
        ctx, machine = freertos.ctx, freertos.board.machine
        ctx.enter("load_partitions", "kernel")      # the caller
        depth, sites = machine.stack_depth(), len(ctx._site_stack)
        assert freertos.kernel.xQueueCreate(4, 8) > 0
        assert machine.stack_depth() == depth
        assert len(ctx._site_stack) == sites
        assert machine.pc == ctx.addresses["load_partitions"]

    def test_panic_keeps_the_machine_frame_and_pops_the_site_block(
            self, freertos):
        ctx, machine = freertos.ctx, freertos.board.machine
        depth, sites = machine.stack_depth(), len(ctx._site_stack)
        with pytest.raises(KernelPanic):
            freertos.kernel.load_partitions(56, 2)   # injected bug #13
        assert machine.stack_depth() == depth + 1
        assert machine.backtrace()[0].symbol == "load_partitions"
        assert machine.pc == ctx.addresses["load_partitions"]
        assert len(ctx._site_stack) == sites

    def test_host_exception_pops_nothing(self, freertos):
        ctx, machine = freertos.ctx, freertos.board.machine
        depth, sites = machine.stack_depth(), len(ctx._site_stack)
        with pytest.raises(ValueError):
            _Probe(ctx).xQueueCreate(ValueError("not a target signal"))
        assert machine.stack_depth() == depth + 1
        assert len(ctx._site_stack) == sites + 1

    def test_entry_breakpoint_lands_in_bp_hits(self, freertos):
        ctx = freertos.ctx
        entry = ctx.addresses["xQueueCreate"]
        freertos.board.machine.set_breakpoint(entry, "entry")
        freertos.kernel.xQueueCreate(4, 8)
        assert entry in ctx.bp_hits

    @pytest.mark.parametrize("enabled_modules, traced", [
        (None, True), ({"ipc"}, True), ({"kernel"}, False)])
    def test_entry_charge_follows_module_instrumentation(
            self, freertos, enabled_modules, traced):
        machine, tracer = freertos.board.machine, freertos.ctx.tracer
        tracer.enabled_modules = enabled_modules
        tracer.reset_run_state()
        cycles, records = machine.cycles, tracer.record_count
        _Probe(freertos.ctx).xQueueCreate()
        expected = machine.cycles_per_call + (TRACE_CYCLE_COST if traced
                                              else 0)
        assert machine.cycles - cycles == expected
        assert tracer.record_count - records == (1 if traced else 0)
