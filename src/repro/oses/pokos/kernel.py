"""The PoKOS kernel: time/space partitions, sampling/queueing ports,
intra-partition buffers and blackboards, and a static cyclic scheduler —
the essential ARINC-653 shapes of POK.

No Table 2 bug lives here: the paper uses PoKOS only for the Gustave
coverage comparison (Table 3).  The error-management API still exists so
health-monitor paths are coverable.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.oses.common.api import arg_buf, arg_int, arg_res, kapi, kfunc
from repro.oses.common.kernel import EmbeddedKernel

POK_OK = 0
POK_EINVAL = -1
POK_EFULL = -2
POK_EEMPTY = -3
POK_EMODE = -4

MODE_IDLE = 0
MODE_COLD_START = 1
MODE_WARM_START = 2
MODE_NORMAL = 3

DIR_SOURCE = 0
DIR_DESTINATION = 1

MAX_PARTITIONS = 8


class _Partition:
    KIND = "part"

    def __init__(self, slots: int):
        self.handle = 0
        self.slots = slots
        self.mode = MODE_COLD_START
        self.threads: List[int] = []
        self.error_count = 0


class _PokThread:
    KIND = "pokthread"

    def __init__(self, partition: "_Partition", period: int):
        self.handle = 0
        self.partition = partition
        self.period = period
        self.activations = 0


class _Port:
    KIND = "port"

    def __init__(self, size: int, direction: int, storage_addr: int):
        self.handle = 0
        self.size = size
        self.direction = direction
        self.storage_addr = storage_addr
        self.queue: List[int] = []  # message lengths; payload in RAM


class _Buffer:
    KIND = "pokbuf"

    def __init__(self, depth: int, msg_size: int):
        self.handle = 0
        self.depth = depth
        self.msg_size = msg_size
        self.msgs: List[bytes] = []


class _Blackboard:
    KIND = "board"

    def __init__(self):
        self.handle = 0
        self.value: Optional[bytes] = None
        self.display_count = 0


class PokKernel(EmbeddedKernel):
    """POK-flavoured partitioned kernel."""

    NAME = "pokos"
    VERSION = "b2e1cc3-repro"
    BOOT_BANNER = "POK kernel initialising partitions"
    EXCEPTION_SYMBOL = "pok_fatal_error"
    ASSERT_LOG_FORMAT = "POK assert: {expr} ({loc})"
    PANIC_LOG_FORMAT = "POK FATAL: {cause} ({detail})"

    def __init__(self, ctx, config=None):
        super().__init__(ctx, config)
        self.handles: Dict[int, object] = {}
        self._next_handle = 1
        self.partitions: List[_Partition] = []
        self.major_frame = 0
        self.current_slot = 0
        self.heap_cursor = 0

    def boot_os(self) -> None:
        root = _Partition(slots=2)
        root.mode = MODE_NORMAL
        self._register(root)
        self.partitions.append(root)
        self.ctx.kprintf("partition P0 up in NORMAL mode")

    def _register(self, obj):
        handle = self._next_handle
        self._next_handle += 1
        obj.handle = handle
        self.handles[handle] = obj
        return obj

    def _lookup(self, handle: int, kind: str):
        obj = self.handles.get(handle)
        if obj is None or obj.KIND != kind:
            return None
        return obj

    def _alloc(self, size: int) -> int:
        layout = self.ctx.layout
        aligned = (size + 7) & ~7
        if self.heap_cursor + aligned > layout.kernel_heap_size:
            return 0
        addr = layout.kernel_heap_base + self.heap_cursor
        self.heap_cursor += aligned
        return addr

    @kfunc(module="sched", sites=8)
    def pok_sched(self) -> None:
        """Cyclic scheduler: rotate the major frame across partitions."""
        if not self.partitions:
            self.ctx.cov(1)
            return
        self.current_slot = (self.current_slot + 1) % sum(
            p.slots for p in self.partitions)
        self.major_frame += 1
        for partition in self.partitions:
            if partition.mode == MODE_NORMAL:
                self.ctx.cov(2)
                for handle in partition.threads:
                    thread = self._lookup(handle, "pokthread")
                    if thread and self.major_frame % thread.period == 0:
                        self.ctx.cov(3)
                        thread.activations += 1

    def idle_tick(self) -> None:
        self.pok_sched()

    @kfunc(module="kernel", sites=4)
    def pok_fatal_error(self, signal) -> None:
        """POK fatal-error entry point."""
        self._fatal_common(signal)

    # ======================= partitions =======================

    @kapi(module="part", sites=6, args=[arg_int("slots", 1, 4)], ret="part",
          doc="Declare a partition with scheduling slots.")
    def pok_partition_create(self, slots: int) -> int:
        # An out-of-range slot count would skew (or zero) the major
        # frame ``pok_sched`` rotates over.
        if len(self.partitions) >= MAX_PARTITIONS or not 1 <= slots <= 4:
            self.ctx.cov(1)
            return POK_EINVAL
        partition = _Partition(slots)
        self._register(partition)
        self.partitions.append(partition)
        return partition.handle

    @kapi(module="part", sites=8,
          args=[arg_res("part", "part"), arg_int("mode", 0, 3)],
          doc="Transition a partition's mode.")
    def pok_partition_set_mode(self, part: int, mode: int) -> int:
        partition = self._lookup(part, "part")
        if partition is None:
            self.ctx.cov(1)
            return POK_EINVAL
        if mode == MODE_NORMAL and partition.mode == MODE_IDLE:
            self.ctx.cov(2)
            return POK_EMODE  # IDLE -> NORMAL is not a legal transition
        partition.mode = mode
        self.ctx.cov(3)
        return POK_OK

    @kapi(module="part", sites=7,
          args=[arg_res("part", "part"), arg_int("period", 1, 16)],
          ret="pokthread", doc="Create a periodic thread in a partition.")
    def pok_thread_create(self, part: int, period: int) -> int:
        partition = self._lookup(part, "part")
        if partition is None:
            self.ctx.cov(1)
            return POK_EINVAL
        if partition.mode != MODE_NORMAL and partition.mode != MODE_COLD_START:
            self.ctx.cov(2)
            return POK_EMODE
        if period <= 0:
            self.ctx.cov(4)
            return POK_EINVAL
        thread = _PokThread(partition, period)
        self._register(thread)
        partition.threads.append(thread.handle)
        return thread.handle

    # ======================= ports =======================

    @kapi(module="port", sites=8,
          args=[arg_int("size", 8, 256), arg_int("direction", 0, 1)],
          ret="port", doc="Create an inter-partition queueing port.")
    def pok_port_create(self, size: int, direction: int) -> int:
        if size < 8:
            self.ctx.cov(4)
            return POK_EINVAL
        storage = self._alloc(size * 4)
        if storage == 0:
            self.ctx.cov(1)
            return POK_EINVAL
        port = _Port(size, direction, storage)
        self._register(port)
        return port.handle

    @kapi(module="port", sites=8,
          args=[arg_res("port", "port"), arg_buf("data", 256)],
          doc="Send through a source port.")
    def pok_port_send(self, port: int, data: bytes) -> int:
        target = self._lookup(port, "port")
        if target is None:
            self.ctx.cov(1)
            return POK_EINVAL
        if target.direction != DIR_SOURCE:
            self.ctx.cov(2)
            return POK_EMODE
        if len(target.queue) >= 4:
            self.ctx.cov(3)
            return POK_EFULL
        chunk = data[:target.size]
        self.ctx.ram.write(target.storage_addr
                           + len(target.queue) * target.size,
                           chunk.ljust(target.size, b"\x00"))
        target.queue.append(len(chunk))
        return POK_OK

    @kapi(module="port", sites=7, args=[arg_res("port", "port")],
          doc="Receive from a destination port (loopback wiring).")
    def pok_port_receive(self, port: int) -> int:
        target = self._lookup(port, "port")
        if target is None:
            self.ctx.cov(1)
            return POK_EINVAL
        if not target.queue:
            self.ctx.cov(2)
            return POK_EEMPTY
        length = target.queue.pop(0)
        self.ctx.ram.read(target.storage_addr, target.size)
        return length

    # ======================= buffers / blackboards =======================

    @kapi(module="ipc", sites=6,
          args=[arg_int("depth", 1, 8), arg_int("msg_size", 4, 64)],
          ret="pokbuf", doc="Create an intra-partition buffer.")
    def pok_buffer_create(self, depth: int, msg_size: int) -> int:
        buffer = _Buffer(depth, msg_size)
        self._register(buffer)
        return buffer.handle

    @kapi(module="ipc", sites=7,
          args=[arg_res("buffer", "pokbuf"), arg_buf("data", 64)],
          doc="Post into a buffer.")
    def pok_buffer_send(self, buffer: int, data: bytes) -> int:
        target = self._lookup(buffer, "pokbuf")
        if target is None:
            self.ctx.cov(1)
            return POK_EINVAL
        if len(target.msgs) >= target.depth:
            self.ctx.cov(2)
            return POK_EFULL
        target.msgs.append(data[:target.msg_size])
        return POK_OK

    @kapi(module="ipc", sites=7, args=[arg_res("buffer", "pokbuf")],
          doc="Take from a buffer; returns the message length.")
    def pok_buffer_receive(self, buffer: int) -> int:
        target = self._lookup(buffer, "pokbuf")
        if target is None:
            self.ctx.cov(1)
            return POK_EINVAL
        if not target.msgs:
            self.ctx.cov(2)
            return POK_EEMPTY
        return len(target.msgs.pop(0))

    @kapi(module="ipc", sites=4, ret="board", doc="Create a blackboard.")
    def pok_blackboard_create(self) -> int:
        board = _Blackboard()
        self._register(board)
        return board.handle

    @kapi(module="ipc", sites=6,
          args=[arg_res("board", "board"), arg_buf("data", 64)],
          doc="Display (overwrite) the blackboard message.")
    def pok_blackboard_display(self, board: int, data: bytes) -> int:
        target = self._lookup(board, "board")
        if target is None:
            self.ctx.cov(1)
            return POK_EINVAL
        if target.value is not None:
            self.ctx.cov(2)  # overwrite of an undisplayed message
        target.value = data[:64]
        target.display_count += 1
        return POK_OK

    @kapi(module="ipc", sites=6, args=[arg_res("board", "board")],
          doc="Read the blackboard; returns the message length or empty.")
    def pok_blackboard_read(self, board: int) -> int:
        target = self._lookup(board, "board")
        if target is None:
            self.ctx.cov(1)
            return POK_EINVAL
        if target.value is None:
            self.ctx.cov(2)
            return POK_EEMPTY
        return len(target.value)

    # ======================= health monitor =======================

    @kapi(module="hm", sites=8,
          args=[arg_res("part", "part"), arg_int("code", 0, 8)],
          doc="Raise a partition error into the health monitor.")
    def pok_error_raise(self, part: int, code: int) -> int:
        partition = self._lookup(part, "part")
        if partition is None:
            self.ctx.cov(1)
            return POK_EINVAL
        partition.error_count += 1
        if partition.error_count >= 3:
            self.ctx.cov(3)  # repeated HM escalation
        if code >= 6:
            self.ctx.cov(2)
            partition.mode = MODE_IDLE  # HM shuts the partition down
            self.ctx.kprintf(f"HM: partition P{part} stopped (code {code})")
        return POK_OK

    # ======================= pseudo syscalls =======================

    @kapi(module="pseudo", sites=8, pseudo=True,
          args=[arg_int("n", 1, 6), arg_int("size", 8, 64)],
          doc="Port round-trip traffic.")
    def syz_port_pipeline(self, n: int, size: int) -> int:
        port = self.pok_port_create(size, DIR_SOURCE)
        if port <= 0:
            self.ctx.cov(1)
            return POK_EINVAL
        done = 0
        for i in range(n):
            if self.pok_port_send(port, bytes([i & 0xFF]) * size) == POK_OK:
                self.ctx.cov(2)
                done += 1
            if i % 2:
                target = self._lookup(port, "port")
                if target is not None and target.queue:
                    self.ctx.cov(3)
                    target.queue.pop(0)
        return done

    @kapi(module="pseudo", sites=8, pseudo=True,
          args=[arg_int("slots", 1, 4), arg_int("threads", 1, 4),
                arg_int("frames", 1, 32)],
          doc="Spin up a partition with threads and run the cyclic schedule.")
    def syz_partition_cycle(self, slots: int, threads: int,
                            frames: int) -> int:
        part = self.pok_partition_create(slots)
        if part <= 0:
            self.ctx.cov(1)
            return POK_EINVAL
        self.pok_partition_set_mode(part, MODE_NORMAL)
        for i in range(threads):
            self.pok_thread_create(part, (i % 4) + 1)
        for _ in range(min(frames, 32)):
            self.pok_sched()
        partition = self._lookup(part, "part")
        total = sum(self._lookup(h, "pokthread").activations
                    for h in partition.threads
                    if self._lookup(h, "pokthread"))
        self.ctx.cov(2)
        return total
