"""Base classes for kernels and attachable components."""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from repro.errors import BusFault, KernelAssertion, KernelPanic, TargetSignal
from repro.oses.common.api import ApiDef, collect_apis
from repro.oses.common.context import (
    CAUSE_ASSERT,
    CAUSE_BUS_FAULT,
    CAUSE_PANIC,
    KernelContext,
)


class KernelComponent:
    """An optional module linked into the image (JSON codec, HTTP server).

    Components carry their own ``@kfunc``/``@kapi`` functions; their APIs
    are appended to the kernel's API table at boot, and their coverage
    sites live under their own module tag so instrumentation can be
    confined to them (Table 4's setup).
    """

    NAME = "component"
    #: Extra dispatch-entry method names for the static reachability
    #: analysis (repro.analysis.reach) — functions invoked through
    #: registered callbacks or tables the AST walk cannot see.
    ANALYSIS_ROOTS: Tuple[str, ...] = ()

    def __init__(self, kernel: "EmbeddedKernel"):
        self.kernel = kernel

    @property
    def ctx(self) -> KernelContext:
        """The owning kernel's HAL context."""
        return self.kernel.ctx

    def on_boot(self) -> None:
        """Called once during kernel boot."""

    def k_assert(self, cond: bool, expr: str, location: str) -> None:
        """Delegate assertion handling to the kernel's style."""
        self.kernel.k_assert(cond, expr, location)


class EmbeddedKernel:
    """Common machinery of the five embedded OS implementations.

    Subclasses provide:

    * ``NAME`` / ``VERSION`` / ``BOOT_BANNER``
    * ``EXCEPTION_SYMBOL`` — the name of their fatal-error entry point
      (a ``@kfunc`` method), where the host's exception monitor places a
      breakpoint (§4.5.2);
    * ``ASSERT_LOG_FORMAT`` — the line printed on assertion failure (the
      log monitor's food);
    * ``boot_os()`` — subsystem initialization;
    * ``@kapi`` methods — the fuzzable API surface.
    """

    NAME = "generic"
    VERSION = "0.0"
    BOOT_BANNER = "generic embedded os"
    EXCEPTION_SYMBOL = "panic_handler"
    ASSERT_LOG_FORMAT = "ASSERT failed: {expr} at {loc}"
    PANIC_LOG_FORMAT = "KERNEL PANIC: {cause} ({detail})"
    #: Extra dispatch-entry method names for the static reachability
    #: analysis (repro.analysis.reach) — see KernelComponent.
    ANALYSIS_ROOTS: Tuple[str, ...] = ()

    def __init__(self, ctx: KernelContext, config: Optional[dict] = None):
        self.ctx = ctx
        self.config = dict(config or {})
        self.components: List[KernelComponent] = []
        self._api_table: List[Tuple[ApiDef, Callable]] = []
        self._collect_own_apis()

    # -- API table -------------------------------------------------------------

    def _collect_own_apis(self) -> None:
        for api in collect_apis(type(self)):
            handler = getattr(self, api.name)
            self._api_table.append((api, handler))

    def attach_component(self, component: KernelComponent) -> None:
        """Link a component's APIs into the kernel's dispatch table."""
        self.components.append(component)
        for api in collect_apis(type(component)):
            handler = getattr(component, api.name)
            self._api_table.append((api, handler))

    def api_table(self) -> List[ApiDef]:
        """Full fuzzable API surface (kernel + attached components)."""
        return [api for api, _ in self._api_table]

    def invoke(self, api_id: int, args: Sequence) -> int:
        """Dispatch one deserialized call (used by the execution agent).

        The agent hands over raw wire values (ints and byte strings); the
        dispatcher coerces them to what each parameter expects, the way a
        C ABI would reinterpret the registers/stack slots.
        """
        if not 0 <= api_id < len(self._api_table):
            return -38  # ENOSYS-flavoured
        api, handler = self._api_table[api_id]
        if len(args) != len(api.args):
            return -22  # EINVAL: arity mismatch
        coerced = []
        for arg_def, value in zip(api.args, args):
            if arg_def.kind in ("buf", "str"):
                if isinstance(value, bytes):
                    coerced.append(value)
                else:
                    coerced.append(
                        (int(value) & ((1 << 64) - 1)).to_bytes(8, "little"))
            else:
                if isinstance(value, bytes):
                    value = int.from_bytes(value[:8].ljust(8, b"\x00"),
                                           "little")
                value = int(value)
                if arg_def.kind == "int":
                    # Wildly out-of-range values behave like "very large"
                    # on the target (loops run long, blocking waits park
                    # forever); bound them so long still terminates while
                    # the reject/clamp/stall branches stay reachable.
                    value = max(arg_def.lo - 16,
                                min(value, arg_def.hi + 2048))
                coerced.append(value)
        result = handler(*coerced)
        return 0 if result is None else int(result)

    # -- boot ----------------------------------------------------------------------

    def boot(self) -> None:
        """Bring the OS up: banner, subsystems, config-selected components."""
        from repro.oses.components import component_registry

        self.ctx.kprintf(self.BOOT_BANNER)
        self.boot_os()
        registry = component_registry()
        for name in self.config.get("components", ()):
            comp_cls = registry.get(name)
            if comp_cls is None:
                continue
            component = comp_cls(self)
            self.attach_component(component)
            component.on_boot()
        self.ctx.kprintf(f"{self.NAME} {self.VERSION} ready")

    def boot_os(self) -> None:
        """Subsystem initialization (subclass hook)."""

    def idle_tick(self) -> None:
        """Housekeeping run between test-case calls (timers, scheduler)."""

    def on_testcase_start(self) -> None:
        """Agent hook at the start of each test case.

        The execution agent re-runs the target's initialization logic
        before every input (§4.6); stateful driver sessions (protocol
        ladders) are torn down here, so staged interfaces must be walked
        within a single test case.
        """
        for hook_name in ("_ladder_reset", "_shell_reset"):
            hook = getattr(self, hook_name, None)
            if hook is not None:
                hook()

    # -- failure handling -----------------------------------------------------------

    def k_assert(self, cond: bool, expr: str, location: str) -> None:
        """Kernel assertion: print the OS's assert line, then hang."""
        if cond:
            return
        self.ctx.kprintf(self.ASSERT_LOG_FORMAT.format(expr=expr, loc=location))
        self.ctx.record_crash(CAUSE_ASSERT, f"{expr} @ {location}")
        self.ctx.assert_failed(expr, location)

    def handle_fatal(self, signal: TargetSignal) -> None:
        """Route a fatal signal into the OS-specific exception entry point.

        The agent calls this *after* the signal unwound the Python stack;
        the machine's crash frames are still frozen, so the handler frame
        stacks on top of them exactly like a real exception entry.
        """
        handler = getattr(self, self.EXCEPTION_SYMBOL)
        handler(signal)

    def _fatal_common(self, signal: TargetSignal) -> None:
        """Shared body of every OS's exception entry point."""
        if isinstance(signal, KernelPanic):
            cause, detail = signal.cause, signal.detail
            code = CAUSE_PANIC
        elif isinstance(signal, BusFault):
            cause, detail = "hard fault", str(signal)
            code = CAUSE_BUS_FAULT
        elif isinstance(signal, KernelAssertion):
            cause, detail = "assertion", signal.expr
            code = CAUSE_ASSERT
        else:
            cause, detail = "fatal", str(signal)
            code = CAUSE_PANIC
        self.ctx.kprintf(self.PANIC_LOG_FORMAT.format(cause=cause,
                                                      detail=detail))
        self.ctx.record_crash(code, f"{cause}: {detail}")
