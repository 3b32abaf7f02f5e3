"""ROM boot path: validate flash, reconstruct the kernel + agent.

This is the code the board runs at power-on.  It only trusts what is in
flash: a corrupted image (damaged by a buggy kernel or by fault
injection) fails CRC validation and the board refuses to boot — the
condition EOF's connection-timeout watchdog detects and its reflash-based
restoration repairs.
"""

from __future__ import annotations

from typing import Optional

from repro.agent.executor import AgentRuntime
from repro.errors import ImageError
from repro.firmware.image import validate_flash
from repro.hw.board import Board, TargetRuntime
from repro.instrument.sancov import SancovTracer
from repro.instrument.sites import SiteInfo, SiteTable
from repro.oses import os_registry
from repro.oses.common.context import KernelContext


def _load(board: Board) -> Optional[TargetRuntime]:
    try:
        meta = validate_flash(board.flash)
    except ImageError:
        return None
    registry = os_registry()
    kernel_cls = registry.get(meta.os_name)
    if kernel_cls is None:
        return None

    site_table = SiteTable()
    for symbol, (base, count) in sorted(meta.site_blocks.items(),
                                        key=lambda kv: kv[1][0]):
        module = meta.symbol_modules.get(symbol, "kernel")
        site_table.add(SiteInfo(symbol=symbol, module=module, base=base,
                                count=count))

    tracer = SancovTracer(
        ram=board.ram,
        buf_addr=meta.ram_layout.cov_buf_addr,
        buf_size=meta.ram_layout.cov_buf_size,
        gen_addr=meta.ram_layout.cov_gen_addr,
        site_table=site_table,
        enabled_modules=(set(meta.instrument_modules)
                         if meta.instrument_modules is not None else None),
        enabled=meta.instrument_enabled,
    )
    tracer.clear()

    ctx = KernelContext(board=board, addresses=meta.addresses, tracer=tracer,
                        layout=meta.ram_layout)
    kernel = kernel_cls(ctx, meta.config)

    # Guard against image/binary drift: the API order baked into the image
    # must match what this kernel + component set actually exposes.
    runtime = AgentRuntime(board=board, kernel=kernel, layout=meta.ram_layout,
                           addresses=meta.addresses)
    if not runtime.boot():
        return None
    actual_order = [api.name for api in kernel.api_table()]
    if actual_order != meta.api_order:
        return None
    return runtime


def install_firmware_loader(board: Board) -> None:
    """Wire the ROM boot path into a board."""
    board.set_firmware_loader(_load)
