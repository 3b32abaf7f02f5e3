#!/usr/bin/env python3
"""Algorithm 1 in action: watchdogs and reflash-based state restoration.

Bug #13 makes FreeRTOS's partition loader scribble on its own image
before panicking, so after the crash the flash is damaged: a reboot is
not enough (the ROM loader rejects the corrupted image), which is exactly
why EOF restores state by reflashing every partition from the table it
extracted from the build configuration (§4.4.2).

Run:  python examples/liveness_and_restore.py
"""

from repro.errors import DebugLinkTimeout
from repro.firmware.layout import parse_partition_table
from repro.fuzz.oneshot import execute_once
from repro.fuzz.restore import StateRestoration
from repro.fuzz.targets import get_target
from repro.fuzz.watchdog import LivenessWatchdog


def main() -> None:
    target = get_target("freertos")

    print("1. Triggering bug #13 (load_partitions with a misaligned "
          "offset)...")
    outcome = execute_once(target, [("load_partitions", (56, 2))])
    assert outcome.crash is not None
    print(f"   crash: {outcome.crash.cause}")

    session = outcome.session
    print("\n2. A plain reboot is NOT enough — the image is damaged:")
    session.reboot()
    print(f"   boot_failed = {session.board.boot_failed}")

    print("\n3. Watchdog #1 (connection timeout) detects the dead target:")
    watchdog = LivenessWatchdog(session)
    try:
        session.link.exec_continue()
        print("   unexpected: target resumed")
    except DebugLinkTimeout:
        print("   -exec-continue timed out, as expected")
    alive = watchdog.check()
    print(f"   LivenessWatchDog() -> {alive} "
          f"(timeout trips: {watchdog.timeout_trips})")

    print("\n4. StateRestoration: partition table from the build config:")
    for part in parse_partition_table(session.build.kconfig_text):
        print(f"   {part.name:8} offset=0x{part.offset:06x} "
              f"size=0x{part.size:06x}")

    restoration = StateRestoration(session)
    recovered = restoration.restore()
    print(f"\n5. After reflash + reboot: recovered={recovered}, "
          f"boot_failed={session.board.boot_failed}")

    print("\n6. Watchdog #2 (PC stall) for comparison: a wedged-but-"
          "responsive target fails the PC check:")
    watchdog.reset()
    session.board.machine.wedge("demo wedge")
    session.link.exec_continue()  # returns, but the PC never moves
    watchdog.check()              # seeds PC history
    alive = watchdog.check()
    print(f"   LivenessWatchDog() -> {alive} "
          f"(stall trips: {watchdog.stall_trips})")
    restoration.restore()
    print(f"   restored again: boot_failed={session.board.boot_failed}")


if __name__ == "__main__":
    main()
