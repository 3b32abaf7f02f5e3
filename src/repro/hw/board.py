"""The development board: CPU + flash + RAM + UART + debug port wiring.

A board is *dumb hardware*.  What runs on it is determined entirely by the
bytes in flash: at power-on the board invokes its ROM bootloader, which
asks a pluggable *firmware loader* (installed by :mod:`repro.firmware`) to
validate the flash image and construct the target runtime (kernel +
execution agent).  If validation fails, the board parks at the reset
vector and stops servicing run-control requests — the condition that
trips watchdog #1 in Algorithm 1.
"""

from __future__ import annotations

import copyreg
import io
import pickle
from typing import Callable, List, Optional, Tuple

from repro.errors import DebugLinkTimeout
from repro.hw.machine import HaltEvent, HaltReason, Machine
from repro.hw.memory import AddressSpace, Flash, Ram
from repro.hw.uart import Uart


class TargetRuntime:
    """Interface the booted firmware must implement.

    ``step()`` runs the target until the next halt event — the virtual
    equivalent of letting the core free-run after ``-exec-continue``.
    """

    def step(self) -> HaltEvent:
        """Run until the next halt event."""
        raise NotImplementedError


# A firmware loader inspects the board's flash and, if it holds a valid
# image, returns the runtime to execute; returning None means boot failure.
FirmwareLoader = Callable[["Board"], Optional[TargetRuntime]]


class Board:
    """A microcontroller board with a hardware debug interface."""

    def __init__(self, name: str, arch: str, machine: Machine, flash: Flash,
                 ram: Ram, uart: Optional[Uart] = None,
                 endianness: str = "little"):
        self.name = name
        self.arch = arch
        self.machine = machine
        self.flash = flash
        self.ram = ram
        self.uart = uart or Uart()
        self.endianness = endianness
        self.memory = AddressSpace([flash, ram])
        self.runtime: Optional[TargetRuntime] = None
        self.boot_failed = False
        self.link_lost = False  # hard-fault induced probe loss (fault injection)
        # Optional fault-injection hooks (repro.chaos.ChaosLink); consulted
        # at boot so "reboot sometimes fails" chaos lives with the hardware.
        self.chaos = None
        self._loader: Optional[FirmwareLoader] = None
        self._boot_count = 0

    # -- firmware hookup ------------------------------------------------------

    def set_firmware_loader(self, loader: FirmwareLoader) -> None:
        """Install the loader the ROM bootloader will call at power-on."""
        self._loader = loader

    @property
    def boot_count(self) -> int:
        """How many successful boots have happened since construction."""
        return self._boot_count

    # -- power / reset ----------------------------------------------------------

    def power_on(self) -> None:
        """Apply power and run the ROM bootloader.

        A full power cycle also clears a latched probe loss: the debug
        access port comes back with the rails.
        """
        self.machine.power_on()
        self.ram.power_cycle()
        self.uart.power_cycle()
        self.link_lost = False
        self._boot()

    def power_off(self) -> None:
        """Cut power; flash retains contents."""
        self.machine.power_off()
        self.runtime = None

    def reset(self) -> None:
        """Warm reset (debug-probe ``monitor reset``): reboot from flash."""
        if not self.machine.powered:
            self.power_on()
            return
        self.machine.reset()
        self.ram.power_cycle()
        self.link_lost = False
        self._boot()

    def _boot(self) -> None:
        self.runtime = None
        self.boot_failed = False
        self.machine.tick(200)  # ROM bootloader cost
        if self._loader is None:
            self.boot_failed = True
            return
        runtime = self._loader(self)
        if runtime is None:
            self.boot_failed = True
            self.machine.wedge("boot failure: invalid image")
            return
        if self.chaos is not None and self.chaos.boot_should_fail():
            # Injected brownout: the image is fine but this boot attempt
            # parks at the reset vector anyway.
            self.boot_failed = True
            self.machine.wedge("chaos: injected boot failure")
            return
        self.runtime = runtime
        self._boot_count += 1

    # -- runtime-image snapshot (repro.fuzz.snapshot) ----------------------------

    def _snapshot_pins(self) -> tuple:
        """The hardware a runtime image refers to but never contains.

        The runtime object graph (kernel, agent, tracer, contexts) must
        be copied so a later restore rewinds it, but everything it
        references *below* the firmware boundary — the board itself, the
        machine, the memories, the UART — is the one physical device and
        must stay shared, or the restored runtime would execute against
        phantom hardware.  The image stores each of these as a
        persistent id (its index here), and a restore resolves the ids
        to the live objects.
        """
        return (self, self.machine, self.flash, self.ram, self.uart,
                self.memory)

    def capture_runtime_image(self) -> bytes:
        """Pickle the booted runtime once, with the hardware pinned."""
        if self.runtime is None:
            raise RuntimeError(f"{self.name}: no runtime to capture")
        image = io.BytesIO()
        _RuntimePickler(image, self._snapshot_pins()).dump(self.runtime)
        return image.getvalue()

    def restore_runtime_image(self, image: bytes) -> None:
        """Install a fresh runtime unpickled from a captured image.

        The image is immutable bytes and each restore builds its own
        object graph from it, so one snapshot serves arbitrarily many
        restores.
        """
        unpickler = pickle.Unpickler(io.BytesIO(image))
        unpickler.persistent_load = self._snapshot_pins().__getitem__
        self.runtime = unpickler.load()
        self.boot_failed = False

    # -- run control (used by the debug port) -----------------------------------

    def responsive(self) -> bool:
        """Can the debug probe still talk to the core?"""
        return self.machine.powered and not self.boot_failed and not self.link_lost

    def resume(self) -> HaltEvent:
        """Free-run until the next halt event.

        Raises :class:`DebugLinkTimeout` when the target cannot service
        run control at all (failed boot, lost link, no power) — the
        paper's "connection timeout".
        """
        if not self.responsive():
            raise DebugLinkTimeout(f"{self.name}: target not responsive")
        if self.machine.wedged:
            # The core spins without making progress: resume "succeeds"
            # but the PC never moves (watchdog #2 territory).
            self.machine.tick(1000)
            return HaltEvent(reason=HaltReason.STALL, pc=self.machine.pc,
                             detail=self.machine.wedge_detail)
        if self.runtime is None:
            raise DebugLinkTimeout(f"{self.name}: no runtime")
        return self.runtime.step()

    def read_pc(self) -> int:
        """Sample the program counter (register read over the probe)."""
        if not self.machine.powered or self.link_lost:
            raise DebugLinkTimeout(f"{self.name}: cannot read PC")
        return self.machine.pc

    # -- host-visible UART capture -----------------------------------------------

    def uart_read(self, cursor: int) -> Tuple[List[str], int]:
        """Drain UART lines newer than ``cursor``."""
        return self.uart.read_from(cursor)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Board {self.name} ({self.arch})>"


# -- runtime-image pickling (Board.capture/restore_runtime_image) --------------


def _assign_attributes(obj, state: dict) -> None:
    """Pickle state setter: rebuild an instance attribute by attribute.

    Pickle's default BUILD fills ``obj.__dict__`` in place.  On CPython
    3.11 that leaves a materialised split dict, on which the interpreter
    does not specialise attribute loads, so every program on a restored
    runtime would run slower.  Assigning each attribute keeps the values
    inline, as ``__init__`` does.  ``object.__setattr__`` also reaches
    through frozen dataclasses, as BUILD does.
    """
    for name, value in state.items():
        object.__setattr__(obj, name, value)


def _assigns_attributes(cls: type) -> bool:
    """Is ``cls`` a ``repro`` class pickled as ``__new__`` + its __dict__?

    Classes with their own ``__new__``, reduce, state protocol or
    ``__slots__`` (enums, exceptions, slotted nodes) keep pickle's
    default handling.
    """
    return (cls.__module__.startswith("repro.")
            and cls.__new__ is object.__new__
            and cls.__reduce_ex__ is object.__reduce_ex__
            and cls.__reduce__ is object.__reduce__
            and getattr(cls, "__getstate__", None)
            is getattr(object, "__getstate__", None)
            and not hasattr(cls, "__setstate__")
            and not hasattr(cls, "__slots__"))


class _RuntimePickler(pickle.Pickler):
    """Pickles a runtime, storing the board's hardware as persistent ids
    and plain ``repro`` instances for :func:`_assign_attributes`."""

    def __init__(self, file, pins: tuple):
        super().__init__(file, protocol=5)
        self._pin_ids = {id(obj): index for index, obj in enumerate(pins)}

    def persistent_id(self, obj):
        return self._pin_ids.get(id(obj))

    def reducer_override(self, obj):
        cls = type(obj)
        if not _assigns_attributes(cls):
            return NotImplemented
        return (copyreg.__newobj__, (cls,), obj.__dict__, None, None,
                _assign_attributes)
