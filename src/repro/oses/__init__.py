"""The embedded operating systems under test.

Five kernels are implemented from scratch, sharing only low-level building
blocks, so that — as in the paper — the *same* fuzzer must cope with
genuinely different API surfaces, schedulers, allocators and error
handling:

* :mod:`repro.oses.freertos`  — tasks/queues/semaphores/event groups, heap_4
* :mod:`repro.oses.rtthread`  — object model, small-mem heap, mempools, device/serial, SAL sockets
* :mod:`repro.oses.zephyr`    — k_threads, sys_heap/k_heap, msgq, workqueue, JSON library
* :mod:`repro.oses.nuttx`     — POSIX-flavoured: mqueue, semaphores, timers, env, clock
* :mod:`repro.oses.pokos`     — a minimal partitioned OS (Gustave comparison)

``OS_REGISTRY`` maps an OS name to its kernel class; the firmware loader
uses it to instantiate whatever the flash image says it contains.
"""

from typing import Dict, Type

from repro.oses.common.kernel import EmbeddedKernel


def os_registry() -> Dict[str, Type[EmbeddedKernel]]:
    """Return the name -> kernel-class registry (imported lazily so the
    kernels stay independent of each other)."""
    from repro.oses.freertos.kernel import FreeRtosKernel
    from repro.oses.rtthread.kernel import RtThreadKernel
    from repro.oses.zephyr.kernel import ZephyrKernel
    from repro.oses.nuttx.kernel import NuttxKernel
    from repro.oses.pokos.kernel import PokKernel

    return {
        FreeRtosKernel.NAME: FreeRtosKernel,
        RtThreadKernel.NAME: RtThreadKernel,
        ZephyrKernel.NAME: ZephyrKernel,
        NuttxKernel.NAME: NuttxKernel,
        PokKernel.NAME: PokKernel,
    }
