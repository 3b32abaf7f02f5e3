"""API metadata and instrumentation decorators.

Every kernel-internal function is marked ``@kfunc`` so the firmware
builder can give it a symbol, a code size and a coverage-site block.
Functions callable from the execution agent are additionally marked
``@kapi`` with a machine-readable description of their arguments; that
description is the stand-in for the headers / unit tests / API reference
text the paper feeds to the LLM when synthesising Syzlang specifications
(§4.5), and it is what :mod:`repro.spec.llmgen` consumes.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Type

from repro.errors import TargetSignal

_ORDER = itertools.count()

DEFAULT_SITES = 8


@dataclass(frozen=True)
class KFuncMeta:
    """Build-time metadata of one kernel function."""

    name: str
    module: str
    sites: int
    order: int
    code_size: int = 0  # 0 = let the builder derive a size


@dataclass(frozen=True)
class ArgDef:
    """One argument of a fuzzer-callable API.

    ``kind`` is one of:

    * ``"int"``   — integer in ``[lo, hi]``
    * ``"flags"`` — bitwise OR of named flag values
    * ``"buf"``   — byte buffer of length <= ``maxlen``
    * ``"str"``   — NUL-free byte string of length <= ``maxlen``
    * ``"res"``   — handle produced earlier by an API returning ``res``
    * ``"const"`` — a fixed value the caller must pass verbatim
    """

    name: str
    kind: str
    lo: int = 0
    hi: int = 0
    flags: Tuple[Tuple[str, int], ...] = ()
    res: Optional[str] = None
    maxlen: int = 0
    value: int = 0
    doc: str = ""
    # For "str" args: well-known values (device names, paths) the docs
    # mention; spec generation surfaces them as string constants.
    candidates: Tuple[str, ...] = ()
    # For "buf" args: the wire format the API expects ("http_request",
    # "json", ...), as documented in headers/tests.  The spec carries it
    # so API-aware generation can emit well-formed payloads.
    fmt: str = ""


def arg_int(name: str, lo: int, hi: int, doc: str = "") -> ArgDef:
    """An integer argument constrained to ``[lo, hi]``."""
    if lo > hi:
        raise ValueError(f"arg {name!r}: empty range [{lo}, {hi}]")
    return ArgDef(name=name, kind="int", lo=lo, hi=hi, doc=doc)


def arg_flags(name: str, flags: Sequence[Tuple[str, int]],
              doc: str = "") -> ArgDef:
    """A flags argument: bitwise OR of the named values."""
    if not flags:
        raise ValueError(f"arg {name!r}: flags set may not be empty")
    return ArgDef(name=name, kind="flags", flags=tuple(flags), doc=doc)


def arg_buf(name: str, maxlen: int, doc: str = "",
            fmt: str = "") -> ArgDef:
    """A byte-buffer argument of bounded length; ``fmt`` names the wire
    format the API documents ("http_request", "json")."""
    return ArgDef(name=name, kind="buf", maxlen=maxlen, doc=doc, fmt=fmt)


def arg_str(name: str, maxlen: int, doc: str = "",
            candidates: Sequence[str] = ()) -> ArgDef:
    """A printable byte-string argument of bounded length; ``candidates``
    lists documented well-known values (device names, env keys, ...)."""
    return ArgDef(name=name, kind="str", maxlen=maxlen, doc=doc,
                  candidates=tuple(candidates))


def arg_res(name: str, res: str, doc: str = "") -> ArgDef:
    """A resource handle produced by an API whose ``ret`` is ``res``."""
    return ArgDef(name=name, kind="res", res=res, doc=doc)


def arg_const(name: str, value: int, doc: str = "") -> ArgDef:
    """A constant the caller must pass as-is."""
    return ArgDef(name=name, kind="const", value=value, doc=doc)


@dataclass(frozen=True)
class ApiDef:
    """A fuzzer-callable API: the unit the spec generator describes."""

    name: str
    module: str
    args: Tuple[ArgDef, ...] = ()
    ret: Optional[str] = None    # resource type produced, if any
    doc: str = ""
    pseudo: bool = False         # Syzkaller-style pseudo syscall (syz_*)


def kfunc(module: str = "kernel", sites: int = DEFAULT_SITES,
          code_size: int = 0) -> Callable:
    """Mark a kernel method as an instrumented function.

    The wrapper runs the context's prologue
    (:meth:`~repro.oses.common.context.KernelContext.enter`) before the
    Python body and an epilogue after it: ``leave`` on a return,
    ``leave_on_signal`` on a :class:`~repro.errors.TargetSignal`, nothing
    on any other exception.  Objects using it must expose ``self.ctx``
    (a :class:`repro.oses.common.context.KernelContext`).
    """

    def decorate(fn: Callable) -> Callable:
        meta = KFuncMeta(name=fn.__name__, module=module, sites=sites,
                         order=next(_ORDER), code_size=code_size)

        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            ctx = self.ctx
            ctx.enter(meta.name, meta.module)
            try:
                result = fn(self, *args, **kwargs)
            except TargetSignal:
                ctx.leave_on_signal()
                raise
            ctx.leave()
            return result

        wrapper.__kfunc__ = meta
        wrapper.__kfunc_raw__ = fn
        return wrapper

    return decorate


def kapi(module: str = "kernel", sites: int = DEFAULT_SITES,
         args: Sequence[ArgDef] = (), ret: Optional[str] = None,
         doc: str = "", pseudo: bool = False,
         code_size: int = 0) -> Callable:
    """Mark a kernel method as a fuzzer-callable API (implies ``kfunc``)."""

    def decorate(fn: Callable) -> Callable:
        wrapped = kfunc(module=module, sites=sites, code_size=code_size)(fn)
        wrapped.__kapi__ = ApiDef(name=fn.__name__, module=module,
                                  args=tuple(args), ret=ret, doc=doc,
                                  pseudo=pseudo)
        if doc and not wrapped.__doc__:
            wrapped.__doc__ = doc
        return wrapped

    return decorate


def collect_kfuncs(cls: Type) -> List[KFuncMeta]:
    """All ``@kfunc`` metadata on a class, in definition order."""
    metas: Dict[str, KFuncMeta] = {}
    for klass in reversed(cls.__mro__):
        for name, attr in vars(klass).items():
            meta = getattr(attr, "__kfunc__", None)
            if meta is not None:
                metas[name] = meta
    return sorted(metas.values(), key=lambda m: m.order)


def collect_apis(cls: Type) -> List[ApiDef]:
    """All ``@kapi`` metadata on a class, in definition order."""
    apis: Dict[str, Tuple[int, ApiDef]] = {}
    for klass in reversed(cls.__mro__):
        for name, attr in vars(klass).items():
            api = getattr(attr, "__kapi__", None)
            if api is not None:
                apis[name] = (attr.__kfunc__.order, api)
    return [api for _, api in sorted(apis.values(), key=lambda t: t[0])]
