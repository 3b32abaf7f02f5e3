"""The firmware "toolchain": symbols, sizes, instrumentation, packing.

``build_firmware`` is the analog of compiling and linking a target OS:

* collects every ``@kfunc`` of the kernel class and requested components,
* assigns each a synthetic address and a deterministic code size,
* allocates SanCov site blocks (only modules being instrumented pay the
  code-size tax — this is what §5.5.1's memory overhead measures),
* lays out flash partitions (boot / kernel / appfs) with CRCs,
* embeds the metadata blob the ROM loader needs to reconstruct the
  kernel at boot, and
* reports the KConfig text whose partition table Algorithm 1 consumes.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.errors import BuildError, DebugLinkError
from repro.firmware.image import Partition, pack_header, \
    write_partitions_to_flash
from repro.firmware.layout import BuildConfig, PartitionSpec, RamLayout
from repro.hw.board import Board
from repro.hw.boards import BOARD_CATALOG, BoardSpec
from repro.instrument.sites import SiteAllocator, SiteTable
from repro.oses.common.api import ApiDef, KFuncMeta, collect_apis, collect_kfuncs

BOOT_BLOB_SIZE = 8 * 1024
APPFS_SIZE = 4 * 1024
PER_SITE_BYTES = 8
INSTR_RUNTIME_BYTES = 512
TEXT_VADDR_SHIFT = 0x1000

# Agent functions linked into every image (module "agent"; the agent is
# deliberately uninstrumented — it must not pollute coverage, §4.3.2).
AGENT_FUNCS: Tuple[Tuple[str, int], ...] = (
    ("executor_main", 160),
    ("read_prog", 224),
    ("execute_one", 288),
    ("handle_exception", 128),
    ("_kcmp_buf_full", 64),
)


@dataclass(frozen=True)
class Symbol:
    """A linked function: name, synthetic address, size, home module."""

    name: str
    address: int
    size: int
    module: str


@dataclass
class BuildInfo:
    """Host-side build artifacts (the ELF + map file, morally)."""

    config: BuildConfig
    board_spec: BoardSpec
    partitions: List[Partition]
    partition_specs: List[PartitionSpec]
    symbols: Dict[str, Symbol]
    site_table: SiteTable
    ram_layout: RamLayout
    api_defs: List[ApiDef]
    api_order: List[str]
    kconfig_text: str
    image_total_bytes: int

    def address_of(self, symbol: str) -> int:
        """Resolve a symbol to its address (the host's symbol file)."""
        if symbol not in self.symbols:
            raise DebugLinkError(f"no symbol {symbol!r} in the image")
        return self.symbols[symbol].address

    def partition_map(self) -> Dict[str, Tuple[bytes, int]]:
        """``name -> (payload bytes, flash offset)`` for restoration."""
        return {part.name: (part.payload, part.offset)
                for part in self.partitions}


def _stable_bytes(tag: str, length: int) -> bytes:
    """Deterministic pseudo-random filler (stands in for machine code)."""
    out = bytearray()
    counter = 0
    while len(out) < length:
        out += zlib.crc32(f"{tag}:{counter}".encode()).to_bytes(4, "little")
        counter += 1
    # Keep 0xFF out of the filler so it never looks like erased flash.
    return bytes(b if b != 0xFF else 0x7D for b in out[:length])


def _base_code_size(name: str) -> int:
    return 48 + (zlib.crc32(name.encode()) % 160 & ~3)


def _build_appfs() -> bytes:
    """The application/filesystem partition: a small on-flash partition
    table with three valid entries, an erased terminator — and one stale
    backup entry (type 0x7F) at a misaligned offset, the food of bug #13.
    """
    blob = bytearray((i * 37 + 11) & 0xFF for i in range(APPFS_SIZE))
    for i in range(APPFS_SIZE):
        if blob[i] in (0xFF, 0x7F):
            blob[i] = 0x7C
    entries = [
        (0x50AA, 0x01, 0x00, 0x00010000, 0x00020000),
        (0x50AA, 0x01, 0x01, 0x00030000, 0x00010000),
        (0x50AA, 0x02, 0x00, 0x00040000, 0x00008000),
    ]
    for idx, (magic, ptype, sub, addr, size) in enumerate(entries):
        struct.pack_into("<HBBII", blob, idx * 16, magic, ptype, sub,
                         addr, size)
        struct.pack_into("<I", blob, idx * 16 + 12, 0x4C424C00 + idx)
    # Erased-looking terminator for aligned scans.
    blob[48] = 0xFF
    blob[49] = 0xFF
    # The stale backup entry: its type byte sits at absolute offset 58,
    # reachable only via misaligned reads (offset % 16 == 8).
    blob[58] = 0x7F
    return bytes(blob)


def _resolve_component_classes(names: Sequence[str]):
    from repro.oses.components import component_registry
    registry = component_registry()
    classes = []
    for name in names:
        if name not in registry:
            raise BuildError(f"unknown component {name!r}; "
                             f"known: {sorted(registry)}")
        classes.append(registry[name])
    return classes


def _make_ram_layout(spec: BoardSpec, config: BuildConfig) -> RamLayout:
    base = spec.ram_base
    status_addr = base + 0x40
    crash_addr = base + 0x80
    cov_addr = base + 0x200
    input_addr = (cov_addr + config.cov_buf_size + 15) & ~15
    heap_base = (input_addr + config.input_buf_size + 63) & ~63
    heap_size = config.kernel_heap_size
    if heap_base + heap_size > base + spec.ram_size:
        raise BuildError(
            f"RAM layout exceeds {spec.name}'s {spec.ram_size} bytes; "
            f"shrink the coverage buffer or heap")
    return RamLayout(
        status_addr=status_addr, status_size=64,
        crash_addr=crash_addr, crash_size=256,
        cov_buf_addr=cov_addr, cov_buf_size=config.cov_buf_size,
        input_buf_addr=input_addr, input_buf_size=config.input_buf_size,
        kernel_heap_base=heap_base, kernel_heap_size=heap_size,
        # Drain-generation word lives in the gap between the crash block
        # (crash_addr + 256) and the coverage buffer at base + 0x200.
        cov_gen_addr=crash_addr + 256,
    )


def build_firmware(config: BuildConfig) -> BuildInfo:
    """Compile-and-link a target OS into a flashable image."""
    from repro.oses import os_registry

    registry = os_registry()
    if config.os_name not in registry:
        raise BuildError(f"unknown OS {config.os_name!r}; "
                         f"known: {sorted(registry)}")
    kernel_cls = registry[config.os_name]
    component_classes = _resolve_component_classes(config.components)

    spec = BOARD_CATALOG.get(config.board)
    if spec is None:
        raise BuildError(f"unknown board {config.board!r}")

    # ---- collect functions (kernel, components, agent) ----------------------
    kfuncs: List[KFuncMeta] = list(collect_kfuncs(kernel_cls))
    for comp_cls in component_classes:
        kfuncs.extend(collect_kfuncs(comp_cls))
    names_seen: Dict[str, str] = {}
    for meta in kfuncs:
        if meta.name in names_seen:
            raise BuildError(f"duplicate symbol {meta.name!r} "
                             f"(modules {names_seen[meta.name]} and "
                             f"{meta.module})")
        names_seen[meta.name] = meta.module

    instr_modules = (set(config.instrument_modules)
                     if config.instrument_modules is not None else None)

    def instrumented(module: str) -> bool:
        if not config.instrument:
            return False
        return instr_modules is None or module in instr_modules

    # ---- sites + symbol layout -------------------------------------------------
    allocator = SiteAllocator()
    partitions_region_base = spec.flash_base
    # The master header owns the first flash sector outright; partitions
    # start at the next sector so reflashing one never clobbers another.
    boot_offset = spec.flash_sector
    kernel_offset = _align_up(boot_offset + BOOT_BLOB_SIZE,
                              spec.flash_sector)
    text_vaddr = partitions_region_base + kernel_offset + TEXT_VADDR_SHIFT

    symbols: Dict[str, Symbol] = {}
    text_bytes = 0
    cursor = text_vaddr
    for meta in kfuncs:
        size = meta.code_size or _base_code_size(meta.name)
        if instrumented(meta.module):
            allocator.allocate(meta.name, meta.module, meta.sites)
            size += PER_SITE_BYTES * meta.sites
        symbols[meta.name] = Symbol(name=meta.name, address=cursor,
                                    size=size, module=meta.module)
        cursor = _align_up(cursor + size, 16)
        text_bytes += size
    for name, size in AGENT_FUNCS:
        symbols[name] = Symbol(name=name, address=cursor, size=size,
                               module="agent")
        cursor = _align_up(cursor + size, 16)
        text_bytes += size
    if config.instrument:
        text_bytes += INSTR_RUNTIME_BYTES

    site_table: SiteTable = allocator.table

    # ---- API table order (must match what the kernel builds at boot) -----------
    api_defs: List[ApiDef] = list(collect_apis(kernel_cls))
    for comp_cls in component_classes:
        api_defs.extend(collect_apis(comp_cls))
    api_order = [api.name for api in api_defs]

    # ---- RAM layout + per-OS config --------------------------------------------
    ram_layout = _make_ram_layout(spec, config)
    # appfs lives in the last sectors of flash, so its address is known
    # before the (variable-size) kernel partition is packed.
    appfs_offset = (spec.flash_size - APPFS_SIZE) // spec.flash_sector \
        * spec.flash_sector

    kernel_config = dict(config.extra_config)
    kernel_config["components"] = list(config.components)
    kernel_config["appfs_flash_addr"] = spec.flash_base + appfs_offset
    kernel_config["appfs_flash_size"] = APPFS_SIZE
    kernel_config["kernel_flash_addr"] = spec.flash_base + kernel_offset + 4

    # ---- kernel partition payload ------------------------------------------------
    rodata_size = 40 * 1024 + (zlib.crc32(config.os_name.encode()) % (16 * 1024))
    meta_dict = {
        "os_name": config.os_name,
        "config": kernel_config,
        "addresses": {name: sym.address for name, sym in symbols.items()},
        "symbol_modules": {name: sym.module for name, sym in symbols.items()},
        "site_blocks": {info.symbol: [info.base, info.count]
                        for info in site_table.blocks()},
        "ram_layout": ram_layout.to_dict(),
        "instrument_enabled": bool(config.instrument),
        "instrument_modules": (sorted(instr_modules)
                               if instr_modules is not None else None),
        "api_order": api_order,
    }

    def pack_kernel(meta: dict) -> bytes:
        meta_blob = json.dumps(meta, sort_keys=True).encode("utf-8")
        text = _stable_bytes(f"text:{config.os_name}", text_bytes)
        rodata = _stable_bytes(f"rodata:{config.os_name}", rodata_size)
        return struct.pack("<I", len(meta_blob)) + meta_blob + text + rodata

    kernel_payload = pack_kernel(meta_dict)
    if kernel_offset + len(kernel_payload) > appfs_offset:
        raise BuildError(f"image does not fit in {spec.name}'s flash")

    partitions = [
        Partition(name="boot", offset=boot_offset,
                  payload=_stable_bytes("boot", BOOT_BLOB_SIZE)),
        Partition(name="kernel", offset=kernel_offset,
                  payload=kernel_payload),
        Partition(name="appfs", offset=appfs_offset, payload=_build_appfs()),
    ]
    partition_specs = [
        PartitionSpec(name=p.name, offset=p.offset,
                      size=_align_up(p.size, spec.flash_sector))
        for p in partitions
    ]
    header = pack_header(partitions)
    total = len(header) + sum(p.size for p in partitions)

    return BuildInfo(
        config=config,
        board_spec=spec,
        partitions=partitions,
        partition_specs=partition_specs,
        symbols=symbols,
        site_table=site_table,
        ram_layout=ram_layout,
        api_defs=api_defs,
        api_order=api_order,
        kconfig_text=config.kconfig_text(partition_specs),
        image_total_bytes=total,
    )


def flash_build(board: Board, build: BuildInfo) -> None:
    """Initial factory flash of a built image onto a board."""
    write_partitions_to_flash(board.flash, build.partitions)


def _align_up(value: int, alignment: int) -> int:
    return (value + alignment - 1) // alignment * alignment
