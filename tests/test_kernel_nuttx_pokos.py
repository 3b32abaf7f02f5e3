"""NuttX kernel semantics (tasks, env, mqueue, semaphores, clock,
timers, bugs #14-#19) and the PoKOS partitioned kernel."""

import pytest

from repro.errors import KernelAssertion, KernelPanic
from repro.oses.nuttx.kernel import (
    EAGAIN,
    EINVAL,
    ENOENT,
    ERROR,
    OK,
    SIGEV_SIGNAL,
    SIGEV_THREAD,
)
from repro.oses.pokos.kernel import (
    DIR_DESTINATION,
    DIR_SOURCE,
    MODE_IDLE,
    MODE_NORMAL,
    POK_EEMPTY,
    POK_EFULL,
    POK_EINVAL,
    POK_EMODE,
    POK_OK,
)

from conftest import boot_target


@pytest.fixture
def k(nuttx):
    return nuttx.kernel


@pytest.fixture
def pk(pokos):
    return pokos.kernel


class TestNuttxTasks:
    def test_create_delete(self, k):
        pid = k.task_create(b"worker", 100, 512)
        assert pid > 0
        assert k.task_delete(pid) == OK

    def test_init_task_protected(self, k):
        init = next(t for t in k.tasks if t.name == "init")
        assert k.task_delete(init.handle) == EINVAL

    def test_setpriority(self, k):
        pid = k.task_create(b"w", 100, 512)
        assert k.sched_setpriority(pid, 200) == OK


class TestNuttxEnvAndBug14:
    def test_setenv_getenv_unsetenv(self, k):
        assert k.setenv(b"MYVAR", b"value", 1) == OK
        assert k.getenv(b"MYVAR") == 5
        assert k.unsetenv(b"MYVAR") == OK
        assert k.getenv(b"MYVAR") == ERROR

    def test_no_overwrite_preserves(self, k):
        k.setenv(b"KEY", b"old", 1)
        k.setenv(b"KEY", b"newer", 0)
        assert k.getenv(b"KEY") == 3

    def test_key_with_equals_rejected(self, k):
        assert k.setenv(b"A=B", b"x", 1) == EINVAL

    def test_slot_exhaustion(self, k):
        for i in range(20):
            k.setenv(f"VAR{i}".encode(), b"x", 1)
        assert len(k.env) <= 16

    def test_bug14_long_name_overflows_env_block(self, k):
        with pytest.raises(KernelPanic, match="setenv"):
            k.setenv(b"A" * 30, b"v", 1)

    def test_24_char_name_is_exactly_ok(self, k):
        assert k.setenv(b"A" * 24, b"v", 1) == OK


class TestNuttxMqueueAndBug16:
    def test_open_send_receive_close(self, k):
        mqd = k.mq_open(b"/q", 4, 16)
        assert k.mq_timedsend(mqd, b"hello", 5, 0) == OK
        assert k.mq_timedreceive(mqd, 0) == 5  # returns the priority
        assert k.mq_close(mqd) == OK

    def test_open_existing_name_returns_same_descriptor(self, k):
        first = k.mq_open(b"/same", 4, 16)
        assert k.mq_open(b"/same", 4, 16) == first

    def test_priority_ordering(self, k):
        mqd = k.mq_open(b"/prio", 4, 16)
        k.mq_timedsend(mqd, b"low", 1, 0)
        k.mq_timedsend(mqd, b"high", 9, 0)
        assert k.mq_timedreceive(mqd, 0) == 9

    def test_full_queue_eagain(self, k):
        mqd = k.mq_open(b"/full", 1, 8)
        k.mq_timedsend(mqd, b"a", 0, 0)
        assert k.mq_timedsend(mqd, b"b", 0, 0) == EAGAIN

    def test_unlink(self, k):
        k.mq_open(b"/gone", 2, 8)
        assert k.mq_unlink(b"/gone") == OK
        assert k.mq_unlink(b"/gone") == ENOENT

    def test_bug16_send_after_close_panics(self, k):
        mqd = k.mq_open(b"/uaf", 4, 16)
        k.mq_close(mqd)
        with pytest.raises(KernelPanic, match="nxmq_timedsend"):
            k.mq_timedsend(mqd, b"x", 1, 0)


class TestNuttxSemAndBug17:
    def test_wait_trywait_post(self, k):
        s = k.sem_init(1)
        assert k.sem_wait(s, 0) == OK
        assert k.sem_trywait(s) == EAGAIN
        assert k.sem_post(s) == OK
        assert k.sem_trywait(s) == OK

    def test_bug17_trywait_after_destroy_asserts(self, nuttx):
        k = nuttx.kernel
        s = k.sem_init(1)
        k.sem_destroy(s)
        with pytest.raises(KernelAssertion):
            k.sem_trywait(s)
        lines, _ = nuttx.board.uart_read(0)
        assert any("nxsem_trywait" in line for line in lines)


class TestNuttxClockAndBugs15And19:
    def test_gettime_realtime_vs_monotonic(self, k):
        assert k.clock_gettime(0) > k.clock_gettime(1)

    def test_settime(self, k):
        assert k.clock_settime(0, 1_800_000_000) == OK
        assert k.clock_gettime(0) >= 1_800_000_000

    def test_gettimeofday_null_tz_ok(self, k):
        assert k.gettimeofday(0) > 0

    def test_gettimeofday_ordinary_tz_ok(self, k):
        assert k.gettimeofday(0x100) > 0

    def test_bug15_page_boundary_tz_panics(self, k):
        with pytest.raises(KernelPanic, match="gettimeofday"):
            k.gettimeofday(0x1FF)

    def test_clock_getres_valid(self, k):
        assert k.clock_getres(0, 0) == 100

    def test_bug19_out_of_table_clockid_panics(self, k):
        with pytest.raises(KernelPanic, match="clock_getres"):
            k.clock_getres(12, 12)

    def test_clock_getres_high_id_benign_pointer(self, k):
        assert k.clock_getres(13, 0) == 100  # aligned pointer: no fault


class TestNuttxTimersAndBug18:
    def test_timer_lifecycle(self, k):
        t = k.timer_create(1, SIGEV_SIGNAL)
        assert t > 0
        assert k.timer_settime(t, 2, 2) == OK
        k.usleep(100_000)
        assert k.timer_gettime(t) >= 1
        assert k.timer_delete(t) == OK

    def test_unsupported_clock_rejected(self, k):
        assert k.timer_create(5, SIGEV_SIGNAL) == EINVAL

    def test_bug18_boottime_with_sigev_thread_panics(self, k):
        with pytest.raises(KernelPanic, match="timer_create"):
            k.timer_create(7, SIGEV_THREAD)

    def test_disarm_with_zero_times(self, k):
        t = k.timer_create(1, SIGEV_SIGNAL)
        k.timer_settime(t, 5, 5)
        assert k.timer_settime(t, 0, 0) == OK
        assert not k._lookup(t, "ptimer").armed


class TestPokos:
    def test_partition_create_and_mode(self, pk):
        part = pk.pok_partition_create(2)
        assert part > 0
        assert pk.pok_partition_set_mode(part, MODE_NORMAL) == POK_OK

    def test_partition_create_rejects_bad_slots(self, pk):
        # Two -1 partitions would zero the major frame pok_sched
        # rotates over.
        before = len(pk.partitions)
        assert pk.pok_partition_create(-1) == POK_EINVAL
        assert pk.pok_partition_create(-1) == POK_EINVAL
        assert pk.pok_partition_create(5) == POK_EINVAL
        pk.pok_sched()
        assert len(pk.partitions) == before

    def test_idle_to_normal_forbidden(self, pk):
        part = pk.pok_partition_create(1)
        pk.pok_partition_set_mode(part, MODE_IDLE)
        assert pk.pok_partition_set_mode(part, MODE_NORMAL) == POK_EMODE

    def test_threads_activate_with_schedule(self, pk):
        part = pk.pok_partition_create(2)
        pk.pok_partition_set_mode(part, MODE_NORMAL)
        thread = pk.pok_thread_create(part, 1)
        for _ in range(5):
            pk.pok_sched()
        assert pk._lookup(thread, "pokthread").activations >= 4

    def test_port_direction_enforced(self, pk):
        port = pk.pok_port_create(16, DIR_DESTINATION)
        assert pk.pok_port_send(port, b"x") == POK_EMODE

    def test_port_send_receive(self, pk):
        port = pk.pok_port_create(16, DIR_SOURCE)
        assert pk.pok_port_send(port, b"data") == POK_OK
        assert pk.pok_port_receive(port) == 4

    def test_port_queue_depth(self, pk):
        port = pk.pok_port_create(8, DIR_SOURCE)
        for _ in range(4):
            assert pk.pok_port_send(port, b"x") == POK_OK
        assert pk.pok_port_send(port, b"x") == POK_EFULL

    def test_buffer_and_blackboard(self, pk):
        buf = pk.pok_buffer_create(2, 16)
        assert pk.pok_buffer_send(buf, b"msg") == POK_OK
        assert pk.pok_buffer_receive(buf) == 3
        assert pk.pok_buffer_receive(buf) == POK_EEMPTY
        board = pk.pok_blackboard_create()
        assert pk.pok_blackboard_read(board) == POK_EEMPTY
        pk.pok_blackboard_display(board, b"notice")
        assert pk.pok_blackboard_read(board) == 6

    def test_health_monitor_stops_partition(self, pk):
        part = pk.pok_partition_create(1)
        pk.pok_partition_set_mode(part, MODE_NORMAL)
        assert pk.pok_error_raise(part, 7) == POK_OK
        assert pk._lookup(part, "part").mode == MODE_IDLE

    def test_small_port_rejected(self, pk):
        assert pk.pok_port_create(2, DIR_SOURCE) == POK_EINVAL
