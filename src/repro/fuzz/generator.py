"""API-aware test-case generation (§4.5).

Programs are call sequences whose arguments satisfy the typed constraints
of the validated specification: integers inside declared ranges (with
deliberate boundary injection), documented string candidates, dictionary-
seeded buffers — and, crucially, *resource dependencies*: an argument that
consumes a queue handle is wired to an earlier call that produced one,
inserting the producer if none exists yet.  Call selection is scored by
resource adjacency and recent-coverage credit, which is exactly the
generation guidance the paper describes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.agent.protocol import (
    ArgData,
    ArgImm,
    ArgRef,
    Call,
    TestProgram,
)
from repro.analysis.speclint import lint_spec
from repro.fuzz.feedback import CoverageMap
from repro.fuzz.rng import FuzzRng
from repro.spec.model import (
    BufferType,
    CallDef,
    ConstType,
    FlagsRef,
    IntType,
    ResourceRef,
    SpecSet,
    StringType,
)

MAX_PRODUCER_DEPTH = 2
DEFAULT_MAX_CALLS = 12


class ProgramGenerator:
    """Generates well-typed programs from a validated SpecSet."""

    def __init__(self, spec: SpecSet, rng: FuzzRng,
                 coverage: Optional[CoverageMap] = None):
        self.spec = spec
        self.rng = rng
        self.coverage = coverage
        self.enabled = spec.enabled_indices()
        # Static pruning: the spec linter proves some calls can never
        # have their resource inputs satisfied (EOF102) — emitting them
        # wastes on-hardware executions on guaranteed early-EINVAL paths,
        # so they are dropped from the candidate pool up front.
        lint = lint_spec(spec)
        self.pruned = frozenset(i for i in lint.dead_call_ids
                                if i in set(self.enabled))
        if self.pruned:
            self.enabled = [i for i in self.enabled if i not in self.pruned]
        self._producers: Dict[str, List[int]] = {}
        # One row per enabled call: what call choice scores it by.
        self._rows: List[Tuple[int, Tuple[str, ...], Optional[str],
                               bool]] = []
        for api_id in self.enabled:
            call = spec.calls[api_id]
            if call.ret:
                self._producers.setdefault(call.ret, []).append(api_id)
            self._rows.append((api_id, tuple(call.consumes()), call.ret,
                               call.pseudo))

    # -- call selection ---------------------------------------------------------

    def _call_weights(self, produced: Dict[str, List[int]],
                      prev_api: Optional[int]) -> List[float]:
        """Weight of every enabled call, in ``self.enabled`` order.

        Resource adjacency first (+2 per input on the table, -0.5 per
        missing one, +1 for opening a new resource, +0.5 for a pseudo
        call), then the call's credit capped at 8, then the pair credit
        after ``prev_api`` capped at 12, then a floor of 0.1.  The
        static terms are exact in binary floating point and a missing
        credit adds 0.0, so ``coverage=None`` and ``prev_api=None`` run
        the same loop with the same bits.  The caps and the floor are
        conditionals with ``min``/``max``'s exact semantics because the
        builtin calls cost more than the rest of this hot loop.
        """
        coverage = self.coverage
        credit = coverage.call_credit if coverage is not None else {}
        pairs = coverage.pair_credit \
            if coverage is not None and prev_api is not None else {}
        has = produced.get
        weights = []
        for api_id, needs, ret, pseudo in self._rows:
            weight = 1.0
            for resource in needs:
                if has(resource):
                    weight += 2.0   # adjacency: its inputs are on the table
                else:
                    weight -= 0.5   # would need a producer insertion
            if ret and not has(ret):
                weight += 1.0       # opens a new resource for later calls
            if pseudo:
                weight += 0.5       # pseudo functions drive deep sequences
            own = credit.get(api_id, 0.0)
            weight += 8.0 if own > 8.0 else own
            pair = pairs.get((prev_api, api_id), 0.0)
            weight += 12.0 if pair > 12.0 else pair
            weights.append(0.1 if weight < 0.1 else weight)
        return weights

    def _choose_call(self, produced: Dict[str, List[int]],
                     prev_api: Optional[int] = None) -> int:
        return self.rng.pick_weighted(self.enabled,
                                      self._call_weights(produced, prev_api))

    # -- argument generation ---------------------------------------------------------

    def _gen_arg(self, param_type, calls: List[Call],
                 produced: Dict[str, List[int]], depth: int):
        if isinstance(param_type, IntType):
            return ArgImm(self.rng.interesting_int(param_type.lo,
                                                   param_type.hi))
        if isinstance(param_type, FlagsRef):
            flags = self.spec.flags.get(param_type.name)
            if flags is None:
                return ArgImm(0)
            value = 0
            for _, bit in flags.values:
                if self.rng.chance(0.4):
                    value |= bit
            return ArgImm(value)
        if isinstance(param_type, StringType):
            return ArgData(self.rng.random_string(param_type.maxlen,
                                                  param_type.candidates))
        if isinstance(param_type, BufferType):
            if param_type.fmt and self.rng.chance(0.85):
                # The spec documents a wire format: emit a well-formed
                # payload (precondition satisfaction, the paper's API-
                # awareness argument) most of the time.
                return ArgData(self.rng.formatted_bytes(param_type.fmt,
                                                        param_type.maxlen))
            return ArgData(self.rng.random_bytes(param_type.maxlen))
        if isinstance(param_type, ConstType):
            return ArgImm(param_type.value)
        if isinstance(param_type, ResourceRef):
            return self._gen_resource_arg(param_type.name, calls, produced,
                                          depth)
        return ArgImm(0)

    def _gen_resource_arg(self, resource: str, calls: List[Call],
                          produced: Dict[str, List[int]], depth: int):
        existing = produced.get(resource, [])
        if existing and self.rng.chance(0.9):
            return ArgRef(self.rng.pick(existing))
        if depth < MAX_PRODUCER_DEPTH and len(calls) < 60:
            producers = [p for p in self._producers.get(resource, [])]
            if producers and self.rng.chance(0.85):
                producer_id = self.rng.pick(producers)
                self._emit_call(producer_id, calls, produced, depth + 1)
                if produced.get(resource):
                    return ArgRef(produced[resource][-1])
        # No producer available: a deliberately invalid handle exercises
        # the target's validation branches.
        return ArgImm(self.rng.pick([0, -1, 7, 0xDEAD]))

    def _emit_call(self, api_id: int, calls: List[Call],
                   produced: Dict[str, List[int]], depth: int) -> None:
        call_def = self.spec.calls[api_id]
        args = tuple(self._gen_arg(param.type, calls, produced, depth)
                     for param in call_def.params)
        calls.append(Call(api_id=api_id, args=args))
        if call_def.ret:
            produced.setdefault(call_def.ret, []).append(len(calls) - 1)

    # -- entry point ------------------------------------------------------------------

    def generate(self, max_calls: int = DEFAULT_MAX_CALLS) -> TestProgram:
        """Build one fresh program."""
        if not self.enabled:
            return TestProgram(calls=[])
        target_len = 1 + self.rng.geometric(max_calls // 2, max_calls)
        calls: List[Call] = []
        produced: Dict[str, List[int]] = {}
        while len(calls) < target_len:
            prev_api = calls[-1].api_id if calls else None
            api_id = self._choose_call(produced, prev_api)
            self._emit_call(api_id, calls, produced, depth=0)
        return TestProgram(calls=calls)
