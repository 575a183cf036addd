"""Superblock-fused, code-generated interpreter backend (tier 3).

The decoded backend (:mod:`repro.runtime.precompile`, tier 2) removed
per-instruction dispatch and operand classification, but still pays one
Python closure call per dynamic instruction plus a ``for eff in
effects`` loop per block.  This module removes those too:

* **Superblock formation** -- basic blocks are grouped into maximal
  single-entry chains (superblocks).  A successor is fused into the
  chain when it is the sole target of the chain's current terminator
  (BR) or one arm of a CBR, and it has exactly one predecessor edge in
  the function's CFG.  When the chain terminator is a CBR with both
  arms fusable, the *hot* arm is chosen from
  ``Interpreter.block_profile`` dynamic block-entry counts when
  available, statically (first target) otherwise; with a profile the
  hottest unclaimed blocks also seed chains first, so hot paths grow
  the longest fused regions.  Chains are capped at
  :data:`MAX_CHAIN_BLOCKS` blocks.
* **Code generation / quickening** -- all superblocks of a function
  merge into ONE generated Python function (``compile()``-ed once per
  ``Interpreter``): an integer-state dispatch loop whose arms are the
  chains, so a chain transition is an in-function jump (``st = k``)
  rather than a call back through a Python driver.  Registers are
  promoted to function-wide Python locals over the tier-2 slot file --
  materialized once per activation and carried across chain
  transitions without flush or reload -- constants are folded into the
  source, arithmetic and compare handlers are inlined (with the
  tree-walker's exact 64-bit wrap semantics), compare+CBR pairs and
  LEA/PTRADD + LOADP/STOREP pairs are fused, and cycle/instruction
  accounting is charged once per segment instead of once per
  instruction.
* **Hooked tier** -- ``compile_superblocks(..., hooked=True)`` emits a
  hook-aware variant for instrumented runs (the profiler and
  :class:`~repro.runtime.parallel.ParallelExecutor`), specialized on
  the interpreter's *probe sites* for the function
  (:meth:`~repro.runtime.interpreter.Interpreter.probes_for`).  Only a
  boundary into a probe site closes the running segment and calls
  ``on_block_entry``, with the same arguments, order and exact
  ``cycles`` as the decoded hooked variant; every other fused boundary
  charges like the uninstrumented tier, and a function without probe
  sites binds no hook at all.  Without declared probe sites every
  block is one (the every-block shape).  ``count_blocks`` compiles to
  one ``__bc[k] += 1`` per boundary into the interpreter's shared
  counter list, buffered into the running segment.  WAIT/SIGNAL/
  NEXT_ITER route through ``exec_sync`` and XFER through ``exec_xfer``
  at segment boundaries, and ``count_loads`` becomes a static
  per-segment ``load_count`` increment.  Because a hook may *rewrite*
  ``interp.cycles`` (the parallel executor replaces serial with
  scheduled-parallel time at loop exits), generated code only ever
  charges through the interpreter attribute and never caches cycle
  state in locals across a hook call.  Hooks receive the tier-2
  :class:`~repro.runtime.precompile.DecodedFrame` and must not inspect
  register state (true of every in-tree consumer).
* **Exactness fallback** -- output, cycle and instruction counts,
  ``RuntimeFault`` messages and ``ExecutionLimitExceeded`` behavior are
  bit-identical to the tree-walker.  Each dispatch arm only runs when
  the instruction budget covers its chain's whole linear body (checked
  on arm entry; loop-shaped chains re-check on every back edge),
  otherwise the generated function flushes the register locals back to
  the slot file and returns the arm index for the driver to resume
  tier-2 from that chain's head.  After every CALL (which consumes
  budget in the callee) the generated code re-checks in place, and
  when the budget could expire inside the fused region it flushes and
  resumes tier-2 execution via
  :func:`repro.runtime.precompile.finish_decoded` (or
  :func:`~repro.runtime.precompile.finish_hooked` in the hooked tier)
  at the aligned segment boundary -- tier-2 segments split after every
  CALL, plus every sync/xfer opcode in the hooked variant, so the
  anchors line up -- whose per-instruction slow path fires the limit at
  precisely the same dynamic instruction as the walker.  The tier-2
  fallback blocks are decoded *lazily*, on the first activation that
  actually falls back, so a cold tier-3 compile never pays for a
  decode.

**Artifact caching**: when the owning interpreter carries a
``codegen_cache`` (any object with ``load(kind, key)`` / ``store(kind,
key, payload)`` -- in practice :class:`repro.artifacts.ArtifactStore`),
generated source and bytecode are content-addressed under the
``"codegen"`` kind and keyed by :data:`CODEGEN_VERSION`, the function's
printed IR, the hook flags and probe sites, the module's global-region
sizes and function set, the cost-model parameters and the function's
block-profile projection -- everything the emitted source can embed as
a literal.  A warm hit re-binds the stored namespace manifest against
the live interpreter and skips formation, rendering *and* ``compile()``
(bytecode is reused when the Python ``cache_tag`` matches, else the
cached source is recompiled).  ``repro serve`` job resubmissions and
warm suite re-runs therefore skip decode+codegen entirely, and
``suite --jobs N`` shards cold compiles across workers through the
shared store.

Assumptions baked into the generated source (shared with tier 2):
global regions are reset *in place* (their backing lists -- and hence
their lengths -- are stable across runs), so bounds checks against
known globals embed the region size as a literal.  The only tolerated
divergence from the walker, as in tier 2: after a non-limit
``RuntimeFault`` aborts a run mid-segment, the dead interpreter's
counters (including ``load_count``) may include instructions from the
faulting segment that never executed (no result object is produced on
a fault).

Counters (:mod:`repro.obs.metrics`): ``interp.superblock.formed``,
``interp.superblock.blocks_fused``, ``interp.codegen.specialized_ops``,
``interp.codegen.functions`` at compile time,
``interp.superblock.hooked`` per hooked-tier function made available,
``interp.codegen.cache.hit`` / ``interp.codegen.cache.miss`` per
artifact-cache probe, and ``interp.superblock.fallbacks`` per
exactness-fallback activation.
"""

from __future__ import annotations

import base64
import hashlib
import json
import marshal
import re
import sys
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

from repro.ir import Function, Instruction, Opcode
from repro.ir.operands import Const, Symbol, VReg
from repro.ir.types import Type
from repro.obs.metrics import REGISTRY
from repro.runtime.interpreter import (
    _BINARY_HANDLERS,
    Pointer,
    RuntimeFault,
    _arith_div,
    _arith_mod,
    format_value,
)
from repro.runtime.precompile import (
    _UNDEF,
    _ftoi,
    _neg,
    _not,
    _undef,
    allocate_slots,
    finish_decoded,
    finish_hooked,
)

_INF = float("inf")

#: Upper bound on blocks fused into one superblock (bounds source size).
MAX_CHAIN_BLOCKS = 64

#: Version of the generated-code layout and namespace manifest.  Bump on
#: ANY change to emitted source shape, bind kinds or driver protocol:
#: it is the only guard between old cached artifacts and new code.
CODEGEN_VERSION = 4

#: Artifact-store kind for cached generated code.
CODEGEN_KIND = "codegen"

_CACHE_TAG = sys.implementation.cache_tag

# 64-bit two's complement wrap, inlined: 2**63 and 2**64 - 1.
_O = "9223372036854775808"
_M = "18446744073709551615"

#: Region/function names safe to splice verbatim into an f-string message.
_SAFE_NAME_RE = re.compile(r"[A-Za-z0-9_.$@:\-]+\Z")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

_CMP_OPS = {
    Opcode.EQ: "==",
    Opcode.NE: "!=",
    Opcode.LT: "<",
    Opcode.LE: "<=",
    Opcode.GT: ">",
    Opcode.GE: ">=",
}
_ARITH_OPS = {Opcode.ADD: "+", Opcode.SUB: "-", Opcode.MUL: "*"}
_BIT_OPS = {Opcode.AND: "&", Opcode.OR: "|", Opcode.XOR: "^"}
_UNARY_FOLDS = {
    Opcode.NEG: _neg,
    Opcode.NOT: _not,
    Opcode.ITOF: float,
    Opcode.FTOI: _ftoi,
}
_SYNC_OPS = (Opcode.WAIT, Opcode.SIGNAL, Opcode.NEXT_ITER, Opcode.XFER)
_LOAD_OPS = (Opcode.LOADG, Opcode.LOADP)


def _wrap(expr: str) -> str:
    """Source form of ``wrap_int(expr)`` for a known-int expression."""
    return f"((({expr}) + {_O}) & {_M}) - {_O}"


def _literal(value) -> Optional[str]:
    """Render ``value`` as a Python literal, or None if not exactly
    representable (bools and non-finite floats are refused)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    if isinstance(value, float) and not (
        value == value and value not in (_INF, -_INF)
    ):
        return None
    text = repr(value)
    return f"({text})" if text.startswith("-") else text


# -- superblock formation -----------------------------------------------------


def _first_terminator(block) -> Optional[Instruction]:
    for instr in block.instructions:
        if instr.is_terminator:
            return instr
    return None


def _fusable_successor(
    func: Function,
    term: Optional[Instruction],
    claimed,
    preds: Dict[str, int],
    block_profile: Optional[Mapping[Tuple[str, str], int]],
) -> Optional[str]:
    """The block to extend the chain with, or None to stop."""
    if term is None or term.opcode is Opcode.RET:
        return None
    blocks = func.blocks

    def ok(name: str) -> bool:
        return name in blocks and name not in claimed and preds.get(name, 0) == 1

    if term.opcode is Opcode.BR:
        target = term.targets[0]
        return target if ok(target) else None
    # CBR: fuse along any fusable arm; prefer the profiled-hot one.
    candidates = [t for t in term.targets if ok(t)]
    if not candidates:
        return None
    if block_profile and len(candidates) > 1:
        fname = func.name
        return max(candidates, key=lambda t: block_profile.get((fname, t), 0))
    return candidates[0]


def form_superblocks(
    func: Function,
    block_profile: Optional[Mapping[Tuple[str, str], int]] = None,
) -> List[List[str]]:
    """Partition ``func``'s blocks into single-entry chains.

    Every block lands in exactly one chain; the entry block always
    heads the first chain.  Interior blocks of a chain have exactly one
    CFG predecessor (the fused edge), which guarantees that every side
    exit of every chain targets a chain *head* -- the invariant the
    generated code relies on to dispatch between superblocks.

    With a ``block_profile``, the non-entry seed order is *trace
    guided*: hotter unclaimed blocks start chains first (a stable sort,
    so ties keep declaration order) and therefore get first claim on
    fusable successors, growing the longest chains along the measured
    hot paths.  Purely a layout heuristic -- never affects semantics.
    """
    blocks = func.blocks
    terms = {name: _first_terminator(b) for name, b in blocks.items()}
    preds: Dict[str, int] = {}
    for term in terms.values():
        if term is not None and term.opcode is not Opcode.RET:
            for target in term.targets:
                if target in blocks:
                    preds[target] = preds.get(target, 0) + 1
    entry_name = func.entry.name
    rest = [n for n in blocks if n != entry_name]
    if block_profile:
        fname = func.name
        rest.sort(key=lambda n: -block_profile.get((fname, n), 0))
    order = [entry_name] + rest
    claimed = set()
    chains: List[List[str]] = []
    for head in order:
        if head in claimed:
            continue
        chain = [head]
        claimed.add(head)
        current = head
        while len(chain) < MAX_CHAIN_BLOCKS:
            nxt = _fusable_successor(
                func, terms[current], claimed, preds, block_profile
            )
            if nxt is None:
                break
            chain.append(nxt)
            claimed.add(nxt)
            current = nxt
        chains.append(chain)
    return chains


# -- compiled artifacts -------------------------------------------------------


class Superblock:
    """Metadata of one compiled chain (one dispatch arm of the merged
    generated function)."""

    __slots__ = ("head", "chain", "max_instructions")

    def __init__(self) -> None:
        self.head = ""
        self.chain: Tuple[str, ...] = ()
        #: Linear instruction count of the whole chain: an upper bound
        #: on what one pass (one loop iteration) can charge.
        self.max_instructions = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<superblock {'+'.join(self.chain)}>"


class _LazyDecode:
    """Tier-2 fallback blocks for one compiled function, decoded only on
    the first activation that actually needs the exactness fallback --
    so a cold tier-3 compile (or a warm artifact hit) never decodes.

    Callable: ``lazy(block_name) -> DecodedBlock`` of the variant whose
    segment boundaries align with the generated code's anchors (fast
    for the uninstrumented tier, hooked with the pinned ``count_loads``
    flag for the hooked tier).
    """

    __slots__ = ("interp", "func", "hooked", "count_loads", "dfunc")

    def __init__(self, interp, func: Function, hooked: bool,
                 count_loads: bool) -> None:
        self.interp = interp
        self.func = func
        self.hooked = hooked
        self.count_loads = count_loads
        self.dfunc = None

    def __call__(self, name: str):
        dfunc = self.dfunc
        if dfunc is None:
            dfunc = self.dfunc = self.interp._decoded_for(
                self.func, self.hooked, self.count_loads
            )
        return dfunc.blocks[name]


class SuperblockFunction:
    """All superblocks of one function, compiled against one interpreter.

    The chains share ONE generated function (``run``): an integer-state
    dispatch loop whose arm ``k`` is chain ``k``'s body, with registers
    held in function-wide locals across chain transitions.  ``run(frame,
    limit, 0)`` executes a whole activation and returns ``None`` on RET,
    or the arm index whose entry budget check failed -- the driver then
    resumes tier-2 at ``heads[index]`` for the exactness fallback.
    """

    __slots__ = (
        "func", "nslots", "param_slots", "entry", "blocks", "run",
        "heads", "lazy", "source", "hooked", "count_loads",
        "entry_probe", "counts", "entry_index",
    )

    def __init__(
        self,
        func: Function,
        nslots: int,
        param_slots: Tuple[int, ...],
        entry: Superblock,
        blocks: Dict[str, Superblock],
        run,
        heads: Tuple[str, ...],
        lazy: _LazyDecode,
        source: str,
        hooked: bool = False,
        count_loads: bool = False,
        probes: Optional[FrozenSet[str]] = None,
        counts: Optional[List[int]] = None,
    ) -> None:
        self.func = func
        self.nslots = nslots
        self.param_slots = param_slots
        self.entry = entry
        self.blocks = blocks
        #: ``run(frame, limit, state)`` -> None (RET) | over-budget arm index.
        self.run = run
        #: Chain head block name per dispatch arm index.
        self.heads = heads
        #: Lazily-decoded tier-2 fallback blocks (see :class:`_LazyDecode`).
        self.lazy = lazy
        #: Generated Python source, kept for tests and debugging.
        self.source = source
        self.hooked = hooked
        self.count_loads = count_loads
        #: Hooked tier: the activation-entry instrumentation the driver
        #: runs (announce the entry block when it is a probe site; bump
        #: ``counts[entry_index]`` when counting blocks).
        self.entry_probe = probes is None or func.entry.name in probes
        self.counts = counts
        self.entry_index = list(func.blocks).index(func.entry.name)


def _hook_spec(interp, func: Function, hooked: bool):
    """(probe sites, block counters) a hooked compile specializes on."""
    if not hooked:
        return None, None
    counts = interp.block_counter(func) if interp.count_blocks else None
    return interp.probes_for(func), counts


def _base_namespace(
    interp, func: Function, lazy: _LazyDecode,
    counts: Optional[List[int]] = None,
) -> Dict[str, object]:
    """Globals of the generated module: runtime objects pre-bound under
    stable dunder names (identical for fresh builds and warm artifact
    instantiations)."""
    return {
        "__BC": counts,
        "__I": interp,
        "__U": _UNDEF,
        "__undef": _undef,
        "__RF": RuntimeFault,
        "__Ptr": Pointer,
        "__fmt": format_value,
        "__div": _arith_div,
        "__mod": _arith_mod,
        "__call": interp.call_function,
        "__fin": finish_decoded,
        "__fh": finish_hooked,
        "__inc": REGISTRY.inc,
        "__db": lazy,
        "__fb": func.blocks,
        "__FN": func.name,
    }


# -- code generation ----------------------------------------------------------


def _dispatch_split(weights: List[int], lo: int, hi: int) -> int:
    """Split point for the weighted binary dispatch tree over arms
    ``[lo, hi)``: the boundary that best balances entry mass, so hot
    arms sit behind few ``st <`` tests (expected test count tracks the
    entropy of the transition profile, not the arm count)."""
    total = sum(weights[lo:hi])
    acc = 0
    best = lo + 1
    best_d: Optional[int] = None
    for mid in range(lo + 1, hi):
        acc += weights[mid - 1]
        d = abs(2 * acc - total)
        if best_d is None or d < best_d:
            best_d = d
            best = mid
    return best


class _FunctionCodegen:
    """Generates and compiles the superblock source for one function."""

    def __init__(
        self,
        interp,
        func: Function,
        hooked: bool = False,
        count_loads: bool = False,
    ) -> None:
        self.interp = interp
        self.func = func
        self.hooked = hooked
        self.count_loads = hooked and count_loads
        self.probes, self.counts = _hook_spec(interp, func, hooked)
        self.count_blocks = self.counts is not None
        #: Block name -> index into the block-entry counters.
        self.block_index = {name: i for i, name in enumerate(func.blocks)}
        self.slot_map = allocate_slots(func)
        self.cost_model = interp.cost_model
        self.specialized = 0
        self.chains: List[List[str]] = []
        #: Function-wide slot sets (filled by :meth:`build` before any
        #: chain is emitted): every slot the body reads or writes, and
        #: the write subset every budget handoff flushes.
        self.touched_slots: Tuple[int, ...] = ()
        self.write_slots: Tuple[int, ...] = ()
        self.lazy = _LazyDecode(interp, func, hooked, self.count_loads)
        self.ns: Dict[str, object] = _base_namespace(
            interp, func, self.lazy, self.counts
        )
        self._binds: Dict[Tuple[str, int], str] = {}
        #: Ordered reconstruction manifest: (name, kind, payload) per
        #: bound object, enough to re-bind against a fresh interpreter
        #: when this compile is replayed from the artifact cache.
        self.bind_specs: List[Tuple[str, str, object]] = []
        self._ptr_cache: Dict[Tuple[int, object, str], str] = {}
        #: VReg uid -> number of argument occurrences function-wide.
        self.uses: Dict[int, int] = {}
        for block in func.blocks.values():
            for instr in block.instructions:
                for arg in instr.args:
                    if isinstance(arg, VReg):
                        self.uses[arg.uid] = self.uses.get(arg.uid, 0) + 1

    def observes(self, name: str) -> bool:
        """Whether entering block ``name`` calls ``on_block_entry``."""
        return self.hooked and (self.probes is None or name in self.probes)

    def bind(self, prefix: str, obj, spec: Tuple[str, object]) -> str:
        """Expose ``obj`` to the generated code under a memoized name.

        ``spec`` is the JSON-able ``(kind, payload)`` recipe that
        :func:`_resolve_bind` uses to rebuild the same object against a
        fresh interpreter on a warm artifact hit.
        """
        key = (prefix, id(obj))
        name = self._binds.get(key)
        if name is None:
            name = f"__{prefix}{len(self._binds)}"
            self._binds[key] = name
            self.ns[name] = obj
            self.bind_specs.append((name, spec[0], spec[1]))
        return name

    def pointer_for(self, store: List, base, name: str) -> str:
        """A pre-built Pointer into a stable (global) region."""
        key = (id(store), base, name)
        bound = self._ptr_cache.get(key)
        if bound is None:
            bound = self.bind(
                "ptr", Pointer(store, base, name), ("ptr", [name, base])
            )
            self._ptr_cache[key] = bound
        return bound

    def cost(self, instr: Instruction) -> int:
        is_float = instr.dest is not None and instr.dest.type is Type.FLOAT
        return self.cost_model.cycles(instr.opcode, is_float)

    def const_expr(self, operand: Const) -> str:
        lit = _literal(operand.value)
        if lit is not None:
            return lit
        return self.bind("c", operand.value, ("c", operand.value))

    def fstr_name(self, name: str) -> str:
        """Fragment rendering ``name`` inside a generated f-string."""
        if _SAFE_NAME_RE.match(name):
            return name
        return "{" + self.bind("nm", name, ("nm", name)) + "}"

    def build(self) -> SuperblockFunction:
        func = self.func
        chains = form_superblocks(func, self.interp.block_profile)
        # Dispatch arms are scanned linearly (`if st == 0: ... elif`),
        # so order them by measured head entry count, hottest first --
        # the expected scan depth of a transition becomes the expected
        # rank of its target, ~1-3 for loopy profiles.  The entry chain
        # stays at arm 0 (the driver starts every activation there).
        profile = self.interp.block_profile
        if profile and len(chains) > 2:
            fname = func.name
            chains[1:] = sorted(
                chains[1:],
                key=lambda chain: -profile.get((fname, chain[0]), 0),
            )
        self.chains = chains
        sblocks: Dict[str, Superblock] = {}
        sb_index: Dict[str, int] = {}
        for i, chain in enumerate(chains):
            sb = Superblock()
            sb.head = chain[0]
            sb.chain = tuple(chain)
            sblocks[chain[0]] = sb
            sb_index[chain[0]] = i
        # Function-wide register file: every slot the generated body can
        # touch is materialized once per activation, so locals stay
        # authoritative across chain transitions (no per-transition
        # flush/reload) and any budget handoff can flush the full write
        # set -- prelude initialization makes every member assignable
        # regardless of which path executed.
        slot_map = self.slot_map
        touched: Dict[int, None] = {}
        writes: Dict[int, None] = {}
        for block in func.blocks.values():
            for instr in block.instructions:
                for reg in instr.uses():
                    touched.setdefault(slot_map[reg.uid], None)
                if instr.dest is not None:
                    slot = slot_map[instr.dest.uid]
                    touched.setdefault(slot, None)
                    writes.setdefault(slot, None)
                if instr.is_terminator:
                    break
        self.touched_slots = tuple(touched)
        self.write_slots = tuple(writes)
        head = [
            "def __sb(frame, __limit, st):",
            "    __i = __I",
        ]
        if self.hooked and (self.probes is None or self.probes):
            head.append("    __obe = __i.on_block_entry")
        if self.count_blocks:
            head.append("    __bc = __BC")
        head.append("    s = frame.slots")
        for slot in self.touched_slots:
            head.append(f"    r{slot} = s[{slot}]")
        head.append("    while True:")
        weights = [
            (profile.get((func.name, chain[0]), 0) + 1) if profile else 1
            for chain in chains
        ]

        def emit_range(lo: int, hi: int, base: str) -> List[str]:
            # Weighted binary dispatch: interior nodes test `st < mid`,
            # leaves hold exactly one arm and need no equality test.
            if hi - lo == 1:
                return _ChainEmitter(
                    self, chains[lo], lo, sblocks[chains[lo][0]],
                    sb_index, base,
                ).render()
            mid = _dispatch_split(weights, lo, hi)
            lines = [f"{base}if st < {mid}:"]
            lines.extend(emit_range(lo, mid, base + "    "))
            lines.append(f"{base}else:")
            lines.extend(emit_range(mid, hi, base + "    "))
            return lines

        source = "\n".join(head + emit_range(0, len(chains), " " * 8)) + "\n"
        code = compile(source, f"<superblocks:{func.name}>", "exec")
        exec(code, self.ns)
        REGISTRY.inc("interp.superblock.formed", len(chains))
        REGISTRY.inc(
            "interp.superblock.blocks_fused",
            sum(len(chain) - 1 for chain in chains),
        )
        if self.specialized:
            REGISTRY.inc("interp.codegen.specialized_ops", self.specialized)
        REGISTRY.inc("interp.codegen.functions")
        param_slots = tuple(
            self.slot_map[param.uid] for param in func.params
        )
        return SuperblockFunction(
            func,
            len(self.slot_map),
            param_slots,
            sblocks[func.entry.name],
            sblocks,
            self.ns["__sb"],
            tuple(chain[0] for chain in chains),
            self.lazy,
            source,
            self.hooked,
            self.count_loads,
            self.probes,
            self.counts,
        )

    def artifact(self, sfunc: SuperblockFunction) -> dict:
        """Serializable payload replaying this compile on a fresh
        interpreter (see :func:`_instantiate`)."""
        code = compile(
            sfunc.source, f"<superblocks:{self.func.name}>", "exec"
        )
        try:
            bytecode = base64.b64encode(marshal.dumps(code)).decode("ascii")
        except Exception:  # pragma: no cover - marshal refuses nothing here
            bytecode = None
        return {
            "codegen": CODEGEN_VERSION,
            "function": self.func.name,
            "hooked": self.hooked,
            "count_loads": self.count_loads,
            "probes": _probe_list(self.probes),
            "count_blocks": self.count_blocks,
            "chains": [list(chain) for chain in self.chains],
            "max_instructions": [
                sfunc.blocks[chain[0]].max_instructions
                for chain in self.chains
            ],
            "nslots": sfunc.nslots,
            "param_slots": list(sfunc.param_slots),
            "binds": [list(spec) for spec in self.bind_specs],
            "source": sfunc.source,
            "cache_tag": _CACHE_TAG,
            "bytecode": bytecode,
        }


class _ChainEmitter:
    """Renders one superblock chain as one dispatch arm of the merged
    generated function.

    :meth:`_FunctionCodegen.build` emits the shared head -- the
    interpreter/hook bindings and a prelude materializing every touched
    slot into locals ``r<slot>`` -- then arranges the arms as a
    profile-weighted binary dispatch tree inside the ``while True:``
    loop (interior nodes test ``st < mid``; a leaf holds exactly one
    arm, so no equality test runs)::

        def __sb(frame, __limit, st):
            __i = __I
            s = frame.slots
            r3 = s[3]; ...                      # function-wide prelude
            while True:
                if st < 1:                       # dispatch tree
                    __n = __i.instructions       # arm 0 (entry chain)
                    if __n + N0 > __limit:
                        s[..] = r..              # flush write set
                        return 0                 # -> driver falls back
                    <charge segment>; <ops>; ...
                    st = 2                       # side exit to chain 2
                    continue                     # back to dispatch
                else:
                    if st < 2: ...

    Locals are authoritative across chain transitions: a transition is
    just ``st = k`` plus a jump back to the dispatch loop, with no
    flush and no reload.  The slot file is only written when control
    leaves the generated function with the frame still live -- an arm's
    over-budget entry check, a loop back edge's budget re-check, or a
    post-CALL fallback -- and then the *full* function write set is
    flushed (prelude initialization makes every member assignable no
    matter which path executed).  The walker's undefined-register check
    stays at each arm's first read site, against the prelude-loaded
    local.  Loop-form arms (terminator targets the chain head) wrap
    their body in an inner ``while True:``; the back edge is
    ``continue`` on that inner loop, side exits ``break`` out of it and
    fall back to the dispatch loop.

    Charges are emitted *before* each segment's operations, exactly
    like tier 2's fast path; a segment that follows a CALL first
    re-checks the remaining linear budget and diverts to
    :func:`finish_decoded` (or :func:`finish_hooked`) when the limit
    could expire before the chain ends.

    In hooked mode, segments additionally close at every fused boundary
    into a probe site (so ``on_block_entry`` observes exact counters, in
    the decoded hooked variant's exact call order) and at every
    sync/xfer opcode (charged through the op before
    ``exec_sync``/``exec_xfer`` runs, matching tier 2's segment-final
    placement), and each closed segment statically bumps
    ``load_count`` by its LOADG/LOADP count when the interpreter counts
    loads.  Block-entry counts need no exact counters, so a fused
    boundary into a non-probe block only buffers its ``__bc[k] += 1``
    into the running segment.
    """

    def __init__(
        self, g: _FunctionCodegen, chain, index, sb, sb_index,
        base: str = " " * 8,
    ) -> None:
        self.g = g
        self.chain = chain
        self.index = index
        self.sb = sb
        #: Chain head -> dispatch arm index, for side-exit transitions.
        self.sb_index = sb_index
        #: Indentation of this arm's leaf inside the dispatch tree.
        self.base = base
        self.blocks = g.func.blocks
        self.hooked = g.hooked
        self.count_loads = g.count_loads
        self.fin = "__fh" if g.hooked else "__fin"
        # Prescan: linear instruction total and loop shape.
        total = 0
        loop_form = False
        for name in chain:
            block = self.blocks[name]
            term = _first_terminator(block)
            if term is None:
                total += len(block.instructions)
            else:
                total += block.instructions.index(term) + 1
                if term.opcode is not Opcode.RET and chain[0] in term.targets:
                    loop_form = True
        self.total = total
        self.loop_form = loop_form
        sb.max_instructions = total
        # Leaf arms carry no equality test, so the body sits at the
        # leaf's own depth; loop form nests it inside the inner while.
        self.indent = base + "    " if loop_form else base
        self.lines: List[str] = []
        self.buf: List[str] = []
        self.seg_count = 0
        self.seg_cycles = 0
        self.seg_loads = 0
        self.charged = 0
        self.pending_check: Optional[Tuple[str, int]] = None
        self.pending_cond: Optional[str] = None
        #: True while the arm-entry ``__n = __i.instructions`` read is
        #: still current, so the chain's first segment can charge with
        #: ``= __n + k`` instead of a second attribute read (every path
        #: to that charge -- arm entry and each back edge -- refreshes
        #: ``__n`` right after any hook that could mutate the counter).
        self.entry_n_live = False
        self.defined: set = set()
        self.local_regions: Dict[str, str] = {}
        self._tmp = 0

    # -- small helpers -------------------------------------------------------

    def tmp(self) -> str:
        self._tmp += 1
        return f"__t{self._tmp}"

    def emit(self, line: str, extra: str = "") -> None:
        self.lines.append(self.indent + extra + line)

    def flush_buf(self) -> None:
        ind = self.indent
        self.lines.extend(ind + line for line in self.buf)
        self.buf = []

    def as_name(self, expr: str) -> str:
        """Materialize ``expr`` into a local if it isn't a plain name."""
        if _IDENT_RE.match(expr):
            return expr
        name = self.tmp()
        self.buf.append(f"{name} = {expr}")
        return name

    def charge_op(self, instr: Instruction) -> None:
        self.seg_count += 1
        self.seg_cycles += self.g.cost(instr)
        if self.count_loads and instr.opcode in _LOAD_OPS:
            self.seg_loads += 1

    def bb(self, name: str) -> str:
        """Bound BasicBlock object (hook-call argument)."""
        return self.g.bind("bb", self.blocks[name], ("bb", name))

    def count_line(self, name: str) -> str:
        return f"__bc[{self.g.block_index[name]}] += 1"

    def entry_lines(self, prev_name: str, next_name: str) -> List[str]:
        """Block-entry instrumentation at a boundary whose segment is
        closed: the entry count, then ``on_block_entry`` when the
        target is a probe site.

        ``__obe`` is bound from the interpreter attribute once per
        activation (so instance-level overrides installed before the
        run stay honored), and hooks may mutate any interpreter
        *counter* freely -- the next charge re-reads them -- but
        rebinding the hook attribute itself mid-activation is only
        observed at the next activation, exactly like a mid-activation
        backend switch.
        """
        lines = []
        if self.g.count_blocks:
            lines.append(self.count_line(next_name))
        if self.g.observes(next_name):
            lines.append(
                f"__obe(frame, {self.bb(prev_name)}, "
                f"{self.bb(next_name)})"
            )
        return lines

    def emit_entry(self, prev_name: str, next_name: str, extra: str = "") -> None:
        for line in self.entry_lines(prev_name, next_name):
            self.emit(line, extra)

    # -- operand access ------------------------------------------------------

    def read(self, operand) -> str:
        g = self.g
        if isinstance(operand, Const):
            return g.const_expr(operand)
        if isinstance(operand, VReg):
            slot = g.slot_map[operand.uid]
            name = f"r{slot}"
            if slot not in self.defined:
                # The prelude materialized every slot; only the
                # walker's undefined-register check stays at the arm's
                # first read site.
                self.defined.add(slot)
                reg = g.bind("vr", operand, ("vr", operand.uid))
                self.buf.append(f"if {name} is __U:")
                self.buf.append(f"    __undef({reg}, __FN)")
            return name
        return self.sym_pointer(operand)

    def sym_pointer(self, sym: Symbol) -> str:
        """A Symbol operand decaying to a Pointer, as in eval_operand."""
        g = self.g
        if sym.is_global:
            store = g.interp.memory.get(sym.name)
            if store is not None:
                g.specialized += 1
                return g.pointer_for(store, 0, sym.name)
            sname = g.bind("sym", sym, ("sym", sym.name))
            name = self.tmp()
            self.buf.append(
                f"{name} = __Ptr(__i.region_of({sname}, frame), 0, "
                f"{sym.name!r})"
            )
            return name
        region = self.local_store(sym)
        name = self.tmp()
        self.buf.append(f"{name} = __Ptr({region}, 0, {sym.name!r})")
        return name

    def local_store(self, sym: Symbol) -> str:
        name = self.local_regions.get(sym.name)
        if name is None:
            sname = self.g.bind("sym", sym, ("sym", sym.name))
            name = f"__lm{len(self.local_regions)}"
            self.local_regions[sym.name] = name
            self.buf.append(f"{name} = frame.local_region({sname})")
        return name

    def store_ref(self, sym: Symbol) -> Tuple[str, Optional[int]]:
        """(store expression, static size or None) for LEA/LOADG/STOREG.

        Emitted *after* the index read, matching the walker's operand
        order.  Known-global and local region sizes are static: regions
        are reset in place and never resized.
        """
        g = self.g
        if sym.is_global:
            store = g.interp.memory.get(sym.name)
            if store is not None:
                return g.bind("st", store, ("st", sym.name)), len(store)
            sname = g.bind("sym", sym, ("sym", sym.name))
            name = self.tmp()
            self.buf.append(f"{name} = __i.region_of({sname}, frame)")
            return name, None
        return self.local_store(sym), sym.size

    def wreg(self, reg: VReg) -> str:
        slot = self.g.slot_map[reg.uid]
        self.defined.add(slot)
        return f"r{slot}"

    def bounds(self, kind: str, name_frag: str, index: str,
               store: str, size: Optional[int]) -> None:
        """Emit the walker's bounds check + fault message."""
        if size is not None:
            self.buf.append(f"if {index} < 0 or {index} >= {size}:")
            self.buf.append(
                f'    raise __RF(f"{kind} out of bounds: '
                f'{name_frag}[{{{index}}}] (size {size})")'
            )
        else:
            self.buf.append(f"if {index} < 0 or {index} >= len({store}):")
            self.buf.append(
                f'    raise __RF(f"{kind} out of bounds: '
                f'{name_frag}[{{{index}}}] (size {{len({store})}})")'
            )

    # -- segment charging ----------------------------------------------------

    def close_segment(self, new_check: Optional[Tuple[str, int]] = None) -> None:
        """Emit the pending charge block, then the buffered op lines.

        When a CALL preceded this segment (``pending_check``), the
        charge is guarded by a conservative remaining-budget test: if
        the rest of the chain's linear body might not fit, flush the
        function's write set and resume tier-2 at the aligned segment
        index of the call's block (resolved lazily through ``__db`` --
        the fallback blocks are only decoded if an activation actually
        diverts).
        """
        out = self.lines
        ind = self.indent
        count, cycles = self.seg_count, self.seg_cycles
        loads = self.seg_loads
        check = self.pending_check
        if check is not None and count:
            bname, seg_index = check
            remaining = self.total - self.charged
            out.append(f"{ind}__n = __i.instructions")
            out.append(f"{ind}if __n + {remaining} > __limit:")
            for slot in self.g.write_slots:
                out.append(f"{ind}    s[{slot}] = r{slot}")
            out.append(f"{ind}    __inc('interp.superblock.fallbacks')")
            out.append(
                f"{ind}    {self.fin}(__i, frame, __db({bname!r}), "
                f"{seg_index}, __limit)"
            )
            out.append(f"{ind}    return None")
            out.append(f"{ind}__i.instructions = __n + {count}")
            if cycles:
                out.append(f"{ind}__i.cycles += {cycles}")
            self.pending_check = None
        else:
            if count:
                if self.entry_n_live:
                    out.append(f"{ind}__i.instructions = __n + {count}")
                else:
                    out.append(f"{ind}__i.instructions += {count}")
            if cycles:
                out.append(f"{ind}__i.cycles += {cycles}")
        self.entry_n_live = False
        if loads:
            out.append(f"{ind}__i.load_count += {loads}")
        out.extend(ind + line for line in self.buf)
        self.buf = []
        self.charged += count
        self.seg_count = 0
        self.seg_cycles = 0
        self.seg_loads = 0
        if new_check is not None:
            self.pending_check = new_check

    # -- exits ---------------------------------------------------------------

    def exit_lines(self, target: str, extra: str, cur_name: str) -> None:
        """Leave the chain towards ``target`` (always a chain head)."""
        out = self.lines
        ind = self.indent + extra
        if self.loop_form and target == self.chain[0]:
            # Back edge: count and announce the head re-entry
            # (hooked), then the next iteration re-charges the full
            # linear body, so re-check it; over budget -> return this
            # arm's index so the driver falls back (finish_hooked does
            # not re-announce the current block, so the hook order
            # stays exact).  Registers stay in their locals across the
            # iteration: only the over-budget return leaves the
            # function and flushes.
            for line in self.entry_lines(cur_name, target):
                out.append(ind + line)
            out.append(f"{ind}__n = __i.instructions")
            out.append(f"{ind}if __n + {self.total} > __limit:")
            for slot in self.g.write_slots:
                out.append(f"{ind}    s[{slot}] = r{slot}")
            out.append(f"{ind}    return {self.index}")
            out.append(f"{ind}continue")
            return
        if target not in self.blocks:
            # Dangling branch target: KeyError, like the walker's
            # func.blocks[name] lookup (which fires before any hook).
            out.append(f"{ind}__fb[{target!r}]")
            return
        for line in self.entry_lines(cur_name, target):
            out.append(ind + line)
        # Chain transition: locals carry over, no flush -- just move
        # the dispatch loop to the target arm.  `continue` targets the
        # dispatch loop directly; loop-form arms `break` out of their
        # inner iteration loop and fall through to it.
        out.append(f"{ind}st = {self.sb_index[target]}")
        out.append(f"{ind}{'break' if self.loop_form else 'continue'}")

    # -- instruction emission ------------------------------------------------

    def emit_op(self, instr: Instruction, nxt: Optional[Instruction]) -> int:
        """Emit one non-terminator op (or a fused pair); returns the
        number of instructions consumed."""
        g = self.g
        buf = self.buf
        op = instr.opcode

        # LEA/PTRADD + LOADP/STOREP pair fusion: the intermediate
        # pointer register is consumed exactly once, by the next op.
        if (
            op in (Opcode.LEA, Opcode.PTRADD)
            and instr.dest is not None
            and nxt is not None
            and nxt.opcode in (Opcode.LOADP, Opcode.STOREP)
            and isinstance(nxt.args[0], VReg)
            and nxt.args[0].uid == instr.dest.uid
            and g.uses.get(instr.dest.uid, 0) == 1
        ):
            self.emit_pair(instr, nxt)
            return 2

        if op is Opcode.MOV:
            self.charge_op(instr)
            expr = self.read(instr.args[0])
            buf.append(f"{self.wreg(instr.dest)} = {expr}")
            return 1

        handler = _BINARY_HANDLERS.get(op)
        if handler is not None:
            self.charge_op(instr)
            a_op, b_op = instr.args
            # compare + CBR fusion: skip the register store, stash the
            # condition expression for the terminator.
            if (
                op in _CMP_OPS
                and nxt is not None
                and nxt.opcode is Opcode.CBR
                and isinstance(nxt.args[0], VReg)
                and nxt.args[0].uid == instr.dest.uid
                and g.uses.get(instr.dest.uid, 0) == 1
            ):
                a = self.read(a_op)
                b = self.read(b_op)
                self.pending_cond = f"{a} {_CMP_OPS[op]} {b}"
                g.specialized += 1
                return 1
            if isinstance(a_op, Const) and isinstance(b_op, Const):
                try:
                    value = handler(a_op.value, b_op.value)
                except Exception:
                    value = None
                else:
                    lit = _literal(value)
                    if lit is not None:
                        buf.append(f"{self.wreg(instr.dest)} = {lit}")
                        g.specialized += 1
                        return 1
            a = self.read(a_op)
            b = self.read(b_op)
            dest = self.wreg(instr.dest)
            if op in _CMP_OPS:
                buf.append(f"{dest} = 1 if {a} {_CMP_OPS[op]} {b} else 0")
            elif op in _ARITH_OPS:
                # The walker computes first (so TypeError provenance is
                # identical), then wraps int results.  Wrapping is the
                # identity on in-range ints -- and in-range floats pass
                # through the walker unwrapped too -- so a two-compare
                # range test covers almost every result and the
                # isinstance + three-op wrap only runs on 64-bit
                # overflow (or non-finite floats, which fail both
                # comparisons and fall through unchanged).
                t = self.tmp()
                buf.append(f"{t} = {a} {_ARITH_OPS[op]} {b}")
                buf.append(
                    f"{dest} = {t} if (-{_O}) <= {t} < {_O} else "
                    f"({_wrap(t)}) if isinstance({t}, int) else {t}"
                )
            elif op in _BIT_OPS:
                # Bit ops are int-only in the walker (wrap always):
                # in-range results skip the wrap entirely.
                t = self.tmp()
                buf.append(f"{t} = {a} {_BIT_OPS[op]} {b}")
                buf.append(
                    f"{dest} = {t} if (-{_O}) <= {t} < {_O} else {_wrap(t)}"
                )
            elif op in (Opcode.DIV, Opcode.MOD):
                # C-style truncated div/mod inlines for an integer
                # dividend when the divisor is a positive int constant:
                # the quotient's magnitude is |a|//b with the dividend's
                # sign (c_div/c_mod), it can never overflow or divide by
                # zero, and every other operand shape (floats, bools,
                # pointers, zero/negative divisors) falls back to the
                # walker's generic helper with identical faults.
                py = "//" if op is Opcode.DIV else "%"
                fn = "__div" if op is Opcode.DIV else "__mod"
                if (
                    isinstance(b_op, Const)
                    and type(b_op.value) is int
                    and b_op.value > 0
                ):
                    buf.append(
                        f"{dest} = ({a} {py} {b} if {a} >= 0 "
                        f"else -(-{a} {py} {b})) "
                        f"if type({a}) is int else {fn}({a}, {b})"
                    )
                    g.specialized += 1
                else:
                    # Runtime divisor: guard the same positive-int
                    # fast path dynamically; zero, negative, float and
                    # bool operands all take the walker's helper with
                    # identical faults.
                    bn = self.as_name(b)
                    buf.append(
                        f"{dest} = ({a} {py} {bn} if {a} >= 0 "
                        f"else -(-{a} {py} {bn})) "
                        f"if type({a}) is int and type({bn}) is int "
                        f"and {bn} > 0 else {fn}({a}, {bn})"
                    )
            else:  # SHL / SHR
                buf.append(f"if {b} < 0 or {b} > 63:")
                buf.append(
                    f'    raise __RF(f"shift amount {{{b}}} out of range")'
                )
                if op is Opcode.SHL:
                    t = self.tmp()
                    buf.append(f"{t} = {a} << {b}")
                    buf.append(
                        f"{dest} = {t} if (-{_O}) <= {t} < {_O} "
                        f"else {_wrap(t)}"
                    )
                else:
                    buf.append(f"{dest} = {a} >> {b}")
            return 1

        fold = _UNARY_FOLDS.get(op)
        if fold is not None:
            self.charge_op(instr)
            a_op = instr.args[0]
            if isinstance(a_op, Const):
                try:
                    lit = _literal(fold(a_op.value))
                except Exception:
                    lit = None
                if lit is not None:
                    buf.append(f"{self.wreg(instr.dest)} = {lit}")
                    g.specialized += 1
                    return 1
            a = self.read(a_op)
            dest = self.wreg(instr.dest)
            if op is Opcode.NEG:
                # Same range-test fast path as the binary arith ops
                # (negating an int yields an int, a float a float, so
                # testing the result matches the walker's operand test).
                t = self.tmp()
                buf.append(f"{t} = -{a}")
                buf.append(
                    f"{dest} = {t} if (-{_O}) <= {t} < {_O} else "
                    f"({_wrap(t)}) if isinstance({t}, int) else {t}"
                )
            elif op is Opcode.NOT:
                buf.append(f"{dest} = 1 if {a} == 0 else 0")
            elif op is Opcode.ITOF:
                buf.append(f"{dest} = float({a})")
            else:  # FTOI
                buf.append(f"{dest} = {_wrap(f'int({a})')}")
            return 1

        if op is Opcode.LEA:
            self.charge_op(instr)
            sym = instr.args[0]
            idx_op = instr.args[1]
            store = g.interp.memory.get(sym.name) if sym.is_global else None
            if store is not None and isinstance(idx_op, Const):
                pointer = g.pointer_for(store, idx_op.value, sym.name)
                buf.append(f"{self.wreg(instr.dest)} = {pointer}")
                g.specialized += 1
                return 1
            index = self.read(idx_op)
            region, _size = self.store_ref(sym)
            buf.append(
                f"{self.wreg(instr.dest)} = __Ptr({region}, {index}, "
                f"{sym.name!r})"
            )
            return 1

        if op is Opcode.PTRADD:
            self.charge_op(instr)
            ptr = self.read(instr.args[0])
            delta = self.read(instr.args[1])
            p = self.as_name(ptr)
            buf.append(f"if not isinstance({p}, __Ptr):")
            buf.append(f'    raise __RF(f"PTRADD on non-pointer {{{p}!r}}")')
            buf.append(
                f"{self.wreg(instr.dest)} = "
                f"__Ptr({p}.store, {p}.base + {delta}, {p}.region)"
            )
            return 1

        if op is Opcode.LOADG or op is Opcode.STOREG:
            self.charge_op(instr)
            sym = instr.args[0]
            kind = "load" if op is Opcode.LOADG else "store"
            index = self.read(instr.args[1])
            value = self.read(instr.args[2]) if op is Opcode.STOREG else None
            region, size = self.store_ref(sym)
            idx_op = instr.args[1]
            if size is not None and isinstance(idx_op, Const) and not isinstance(
                idx_op.value, bool
            ) and isinstance(idx_op.value, int):
                # Statically decidable bounds: elide the check, or fault
                # unconditionally with the walker's exact message.
                if 0 <= idx_op.value < size:
                    g.specialized += 1
                else:
                    msg = (
                        f"{kind} out of bounds: {sym.name}[{idx_op.value}] "
                        f"(size {size})"
                    )
                    buf.append(f"raise __RF({msg!r})")
                    return 1
            else:
                self.bounds(kind, g.fstr_name(sym.name), index, region, size)
            if op is Opcode.LOADG:
                buf.append(f"{self.wreg(instr.dest)} = {region}[{index}]")
            else:
                buf.append(f"{region}[{index}] = {value}")
            return 1

        if op is Opcode.LOADP or op is Opcode.STOREP:
            self.charge_op(instr)
            kind = "load" if op is Opcode.LOADP else "store"
            opname = "LOADP" if op is Opcode.LOADP else "STOREP"
            ptr = self.read(instr.args[0])
            index = self.read(instr.args[1])
            value = self.read(instr.args[2]) if op is Opcode.STOREP else None
            p = self.as_name(ptr)
            buf.append(f"if not isinstance({p}, __Ptr):")
            buf.append(
                f'    raise __RF(f"{opname} on non-pointer {{{p}!r}}")'
            )
            slot = self.tmp()
            buf.append(f"{slot} = {p}.base + {index}")
            store = self.tmp()
            buf.append(f"{store} = {p}.store")
            self.bounds(kind, f"{{{p}.region}}", slot, store, None)
            if op is Opcode.LOADP:
                buf.append(f"{self.wreg(instr.dest)} = {store}[{slot}]")
            else:
                buf.append(f"{store}[{slot}] = {value}")
            return 1

        if op is Opcode.CALL:
            self.charge_op(instr)
            args = [self.read(a) for a in instr.args]
            callee = g.interp.module.functions.get(instr.callee)
            arglist = ", ".join(args)
            if callee is not None:
                fn = g.bind("fn", callee, ("fn", instr.callee))
                call = f"__call({fn}, [{arglist}])"
            else:
                # Unknown callee: KeyError at execution, like the walker.
                call = (
                    f"__call(__i.module.functions[{instr.callee!r}], "
                    f"[{arglist}])"
                )
            if instr.dest is not None:
                buf.append(f"{self.wreg(instr.dest)} = {call}")
            else:
                buf.append(call)
            return 1

        if op is Opcode.PRINT:
            self.charge_op(instr)
            expr = self.read(instr.args[0])
            buf.append(f"__i.output.append(__fmt({expr}))")
            return 1

        if op in _SYNC_OPS:
            # Timing-only in the fast variant: charge, no effect.  (The
            # hooked emitter intercepts these in render() and routes
            # them through exec_sync/exec_xfer at a segment boundary.)
            self.charge_op(instr)
            return 1

        # Verifier-rejected shapes: fault at execution, like the walker.
        self.charge_op(instr)  # pragma: no cover - defensive
        buf.append(f"raise __RF({f'cannot execute opcode {op}'!r})")
        return 1

    def emit_pair(self, first: Instruction, second: Instruction) -> None:
        """Fused LEA/PTRADD + LOADP/STOREP: the Pointer is never built."""
        g = self.g
        buf = self.buf
        self.charge_op(first)
        self.charge_op(second)
        g.specialized += 2
        kind = "load" if second.opcode is Opcode.LOADP else "store"
        if first.opcode is Opcode.LEA:
            sym = first.args[0]
            base = self.read(first.args[1])
            region, size = self.store_ref(sym)
            index = self.read(second.args[1])
            value = (
                self.read(second.args[2])
                if second.opcode is Opcode.STOREP
                else None
            )
            slot = self.tmp()
            buf.append(f"{slot} = {base} + {index}")
            self.bounds(kind, g.fstr_name(sym.name), slot, region, size)
            if second.opcode is Opcode.LOADP:
                buf.append(f"{self.wreg(second.dest)} = {region}[{slot}]")
            else:
                buf.append(f"{region}[{slot}] = {value}")
            return
        # PTRADD + LOADP/STOREP
        ptr = self.read(first.args[0])
        delta = self.read(first.args[1])
        p = self.as_name(ptr)
        buf.append(f"if not isinstance({p}, __Ptr):")
        buf.append(f'    raise __RF(f"PTRADD on non-pointer {{{p}!r}}")')
        index = self.read(second.args[1])
        value = (
            self.read(second.args[2])
            if second.opcode is Opcode.STOREP
            else None
        )
        slot = self.tmp()
        buf.append(f"{slot} = {p}.base + {delta} + {index}")
        store = self.tmp()
        buf.append(f"{store} = {p}.store")
        self.bounds(kind, f"{{{p}.region}}", slot, store, None)
        if second.opcode is Opcode.LOADP:
            buf.append(f"{self.wreg(second.dest)} = {store}[{slot}]")
        else:
            buf.append(f"{store}[{slot}] = {value}")

    # -- terminators ---------------------------------------------------------

    def emit_terminator(
        self, instr: Instruction, next_name: Optional[str], cur_name: str
    ) -> None:
        op = instr.opcode
        self.seg_count += 1
        self.seg_cycles += self.g.cost(instr)
        if op is Opcode.RET:
            self.close_segment()
            if instr.args:
                expr = self.read(instr.args[0])
                self.flush_buf()
                self.emit(f"frame.ret = {expr}")
            # Slots die with the frame on RET: no flush needed.
            self.emit("return None")
            return
        if op is Opcode.BR:
            target = instr.targets[0]
            if target == next_name:
                if self.g.observes(target):
                    # Fused boundary into a probe site: the hook must
                    # observe counters through this BR, so the segment
                    # closes here.
                    self.close_segment()
                    self.emit_entry(cur_name, target)
                elif self.g.count_blocks:
                    self.buf.append(self.count_line(target))
                # Fast fused fallthrough: the charge folds into the
                # running segment; no control flow is emitted at all.
                return
            self.close_segment()
            self.exit_lines(target, "", cur_name)
            return
        # CBR
        self.close_segment()
        cond_op = instr.args[0]
        if self.pending_cond is not None:
            cond = self.pending_cond
            self.pending_cond = None
            self.flush_buf()
        elif isinstance(cond_op, Const):
            taken = instr.targets[0] if cond_op.value != 0 else instr.targets[1]
            self.g.specialized += 1
            if taken != next_name:
                self.exit_lines(taken, "", cur_name)
            else:
                self.emit_entry(cur_name, taken)
            return
        else:
            expr = self.read(cond_op)
            self.flush_buf()
            cond = f"{expr} != 0"
        t0, t1 = instr.targets[0], instr.targets[1]
        if t0 == next_name:
            self.emit(f"if not ({cond}):")
            self.exit_lines(t1, "    ", cur_name)
            self.emit_entry(cur_name, t0)
        elif t1 == next_name:
            self.emit(f"if {cond}:")
            self.exit_lines(t0, "    ", cur_name)
            self.emit_entry(cur_name, t1)
        else:
            self.emit(f"if {cond}:")
            self.exit_lines(t0, "    ", cur_name)
            self.exit_lines(t1, "", cur_name)

    # -- chain rendering -----------------------------------------------------

    def render(self) -> List[str]:
        g = self.g
        base = self.base
        # Arm entry: the budget check the old per-chain driver used to
        # run before every chain call -- the whole linear body must fit
        # or the driver resumes on tier-2 (flush first: when entered
        # via a transition, locals are the only current copy of the
        # registers).
        head = [
            f"{base}__n = __i.instructions",
            f"{base}if __n + {self.total} > __limit:",
        ]
        for slot in g.write_slots:
            head.append(f"{base}    s[{slot}] = r{slot}")
        head.append(f"{base}    return {self.index}")
        if self.loop_form:
            head.append(f"{base}while True:")
        self.entry_n_live = True
        for pos, name in enumerate(self.chain):
            block = self.blocks[name]
            next_name = self.chain[pos + 1] if pos + 1 < len(self.chain) else None
            # Segment index within this block's aligned tier-2 decode:
            # tier-2 splits after every CALL, plus every sync/xfer op in
            # the hooked variant; counting both keeps fallback anchors
            # aligned with the variant finish_* resumes on.
            splits = 0
            instructions = block.instructions
            terminated = False
            i = 0
            while i < len(instructions):
                instr = instructions[i]
                if instr.is_terminator:
                    self.emit_terminator(instr, next_name, name)
                    terminated = True
                    break
                nxt = instructions[i + 1] if i + 1 < len(instructions) else None
                if self.hooked and instr.opcode in _SYNC_OPS:
                    # Segment-final in tier 2: charge through the op,
                    # then run the hook with exact counters.
                    self.charge_op(instr)
                    splits += 1
                    self.close_segment()
                    meth = (
                        "exec_xfer"
                        if instr.opcode is Opcode.XFER
                        else "exec_sync"
                    )
                    ins = g.bind("ins", instr, ("ins", [name, i]))
                    self.emit(f"__i.{meth}(frame, {ins})")
                    i += 1
                    continue
                consumed = self.emit_op(instr, nxt)
                if instr.opcode is Opcode.CALL:
                    # Tier-2 segments split after every CALL; anchoring
                    # the budget re-check here keeps both backends'
                    # resume points aligned.
                    splits += 1
                    self.close_segment(new_check=(name, splits))
                i += consumed
            if not terminated:
                msg = f"block {name} fell through without terminator"
                self.buf.append(f"raise __RF({msg!r})")
                self.close_segment()
        return head + self.lines


# -- artifact instantiation ---------------------------------------------------


def _vreg_map(func: Function) -> Dict[int, VReg]:
    """uid -> VReg over everything the function mentions."""
    vregs: Dict[int, VReg] = {}
    for param in func.params:
        vregs[param.uid] = param
    for block in func.blocks.values():
        for instr in block.instructions:
            if instr.dest is not None:
                vregs[instr.dest.uid] = instr.dest
            for arg in instr.args:
                if isinstance(arg, VReg):
                    vregs[arg.uid] = arg
    return vregs


def _resolve_bind(interp, func: Function, vregs, kind, spec):
    """Rebuild one namespace binding from its artifact recipe."""
    if kind == "c" or kind == "nm":
        return spec
    if kind == "vr":
        return vregs[spec]
    if kind == "st":
        return interp.memory[spec]
    if kind == "ptr":
        name, base = spec
        return Pointer(interp.memory[name], base, name)
    if kind == "fn":
        return interp.module.functions[spec]
    if kind == "bb":
        return func.blocks[spec]
    if kind == "ins":
        bname, index = spec
        return func.blocks[bname].instructions[index]
    if kind == "sym":
        sym = interp.module.globals.get(spec)
        if sym is None:
            sym = func.locals[spec]
        return sym
    raise KeyError(f"unknown bind kind {kind!r}")


def _probe_list(probes: Optional[FrozenSet[str]]) -> Optional[List[str]]:
    """JSON form of a probe set (``None``: every block)."""
    return None if probes is None else sorted(probes)


def _instantiate(
    interp, func: Function, hooked: bool, count_loads: bool, payload: dict
) -> Optional[SuperblockFunction]:
    """Replay a cached compile against a live interpreter, or None when
    the payload does not fit this function/interpreter (caller falls
    back to a fresh build)."""
    probes, counts = _hook_spec(interp, func, hooked)
    if (
        payload.get("codegen") != CODEGEN_VERSION
        or payload.get("function") != func.name
        or bool(payload.get("hooked")) != bool(hooked)
        or bool(payload.get("count_loads")) != bool(hooked and count_loads)
        or payload.get("probes") != _probe_list(probes)
        or bool(payload.get("count_blocks")) != (counts is not None)
    ):
        return None
    chains = [list(chain) for chain in payload["chains"]]
    flat = [name for chain in chains for name in chain]
    if sorted(flat) != sorted(func.blocks):
        return None
    slot_map = allocate_slots(func)
    param_slots = tuple(slot_map[param.uid] for param in func.params)
    if (
        payload["nslots"] != len(slot_map)
        or list(payload["param_slots"]) != list(param_slots)
    ):
        return None
    lazy = _LazyDecode(interp, func, hooked, hooked and count_loads)
    ns = _base_namespace(interp, func, lazy, counts)
    sblocks: Dict[str, Superblock] = {}
    for chain, max_instructions in zip(chains, payload["max_instructions"]):
        sb = Superblock()
        sb.head = chain[0]
        sb.chain = tuple(chain)
        sb.max_instructions = max_instructions
        sblocks[chain[0]] = sb
    vregs: Optional[Dict[int, VReg]] = None
    for name, kind, spec in payload["binds"]:
        if kind == "vr" and vregs is None:
            vregs = _vreg_map(func)
        ns[name] = _resolve_bind(interp, func, vregs, kind, spec)
    source = payload["source"]
    code = None
    if payload.get("cache_tag") == _CACHE_TAG and payload.get("bytecode"):
        try:
            code = marshal.loads(base64.b64decode(payload["bytecode"]))
        except Exception:
            code = None
    if code is None:
        code = compile(source, f"<superblocks:{func.name}>", "exec")
    exec(code, ns)
    return SuperblockFunction(
        func,
        len(slot_map),
        param_slots,
        sblocks[func.entry.name],
        sblocks,
        ns["__sb"],
        tuple(chain[0] for chain in chains),
        lazy,
        source,
        hooked,
        hooked and count_loads,
        probes,
        counts,
    )


def artifact_key(interp, func: Function, hooked: bool,
                 count_loads: bool) -> str:
    """Content address of one function's generated code.

    Covers everything the emitted source can embed as a literal: the
    codegen layout version, the function's printed IR (opcodes,
    operands, local sizes), the hook flags and the function's probe
    sites, the module's global-region sizes and known-function set,
    the cost model (cycle charges are literals in the source) and the
    block-profile projection for this function (chain formation is
    trace guided).  Machine fields the
    source never sees -- core counts, latencies -- are deliberately
    excluded, so jobs differing only in those share warm codegen.
    """
    from repro.ir.printer import function_to_str

    cost_model = interp.cost_model
    probes, counts = _hook_spec(interp, func, hooked)
    profile = interp.block_profile
    projection = None
    if profile:
        fname = func.name
        projection = sorted(
            (block, count)
            for (owner, block), count in profile.items()
            if owner == fname
        )
    spec = {
        "codegen": CODEGEN_VERSION,
        "ir": function_to_str(func),
        "hooked": bool(hooked),
        "count_loads": bool(hooked and count_loads),
        "probes": _probe_list(probes),
        "count_blocks": counts is not None,
        "globals": sorted(
            (name, len(init))
            for name, init in interp.module.global_inits.items()
        ),
        "functions": sorted(interp.module.functions),
        "costs": sorted(
            (opcode.value, cycles)
            for opcode, cycles in cost_model.costs.items()
        ),
        "float_extra": cost_model.float_extra,
        "profile": projection,
    }
    blob = json.dumps(spec, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


# -- entry points -------------------------------------------------------------


def compile_superblocks(
    interp,
    func: Function,
    hooked: bool = False,
    count_loads: bool = False,
) -> SuperblockFunction:
    """Form, generate and compile all superblocks of ``func``.

    With ``hooked=True`` the generated chains call ``on_block_entry``
    (at the interpreter's probe sites) / ``exec_sync`` / ``exec_xfer``
    at the decoded hooked variant's exact observation points, count
    block entries when the interpreter sets ``count_blocks``, and
    statically count loads when ``count_loads`` is set.  When the interpreter carries a ``codegen_cache``, the
    compile is content-addressed: a warm hit replays the stored source
    and namespace manifest and skips formation, rendering and (when the
    Python version matches) ``compile()`` entirely.
    """
    cache = getattr(interp, "codegen_cache", None)
    key = None
    if cache is not None:
        key = artifact_key(interp, func, hooked, count_loads)
        payload = cache.load(CODEGEN_KIND, key)
        sfunc = None
        if payload is not None:
            try:
                sfunc = _instantiate(interp, func, hooked, count_loads, payload)
            except Exception:
                sfunc = None
        if sfunc is not None:
            REGISTRY.inc("interp.codegen.cache.hit")
            if hooked:
                REGISTRY.inc("interp.superblock.hooked")
            return sfunc
        REGISTRY.inc("interp.codegen.cache.miss")
    gen = _FunctionCodegen(interp, func, hooked, count_loads)
    sfunc = gen.build()
    if hooked:
        REGISTRY.inc("interp.superblock.hooked")
    if cache is not None:
        cache.store(CODEGEN_KIND, key, gen.artifact(sfunc))
    return sfunc


def execute_superblocks(interp, sfunc: SuperblockFunction, frame) -> object:
    """Run one activation over compiled superblocks to its RET.

    The whole activation -- chain dispatch included -- runs inside the
    single generated function; a chain is only entered when the
    remaining instruction budget covers its entire linear body (each
    dispatch arm checks on entry), otherwise ``run`` flushes the
    register locals and returns the arm index, and the activation
    finishes on tier-2's exact per-instruction path from that chain's
    head, so ``ExecutionLimitExceeded`` fires at precisely the same
    dynamic instruction as the tree-walker.
    """
    limit = interp.max_instructions
    if limit is None:
        limit = _INF
    st = sfunc.run(frame, limit, 0)
    if st is None:
        return frame.ret
    REGISTRY.inc("interp.superblock.fallbacks")
    finish_decoded(interp, frame, sfunc.lazy(sfunc.heads[st]), 0, limit)
    return frame.ret


def execute_hooked_superblocks(
    interp, sfunc: SuperblockFunction, frame
) -> object:
    """Run one hooked activation over compiled superblocks to its RET.

    The activation-entry instrumentation -- the entry block's count and,
    at a probe site, ``on_block_entry(frame, None, entry)`` -- is the
    driver's job (matching the decoded hooked variant); every later
    boundary lives inside the generated code, so a budget fallback
    resumes through :func:`finish_hooked` without re-announcing the
    block the chains already entered.
    """
    limit = interp.max_instructions
    if limit is None:
        limit = _INF
    counts = sfunc.counts
    if counts is not None:
        counts[sfunc.entry_index] += 1
    if sfunc.entry_probe:
        interp.on_block_entry(frame, None, sfunc.func.entry)
    st = sfunc.run(frame, limit, 0)
    if st is None:
        return frame.ret
    REGISTRY.inc("interp.superblock.fallbacks")
    finish_hooked(interp, frame, sfunc.lazy(sfunc.heads[st]), 0, limit)
    return frame.ret
