"""Pre-decoded, closure-compiled interpreter backend.

The tree-walking :class:`~repro.runtime.interpreter.Interpreter` pays, on
every dynamic instruction, for opcode dispatch (a long ``if``/``elif``
chain), operand classification (``isinstance`` on every operand), register
access (a ``dict`` keyed by VReg uid) and a cost-model lookup.  None of
that work depends on runtime values, so this module hoists all of it to a
once-per-:class:`~repro.ir.Function` *decode* step:

* **Slot allocation** -- every VReg uid used by the function is assigned a
  dense index into a per-activation ``list`` (:class:`DecodedFrame`),
  replacing the ``Dict[int, object]`` register file.
* **Closure compilation** -- each instruction becomes one Python closure
  with its operands pre-resolved: constants and cost-model cycles are
  baked in as default arguments, binary handlers are bound directly, and
  global ``Symbol`` regions are resolved to their backing lists ahead of
  execution (possible because the interpreter resets global memory in
  place).
* **Terminator fusion** -- a block's terminator becomes a closure that
  returns the successor :class:`DecodedBlock` directly (or ``None`` for
  RET), so block execution is a tight ``for eff in effects: eff(frame)``
  loop plus a single successor decision.
* **Segmented accounting** -- cycle and instruction counts are charged per
  maximal *segment* (a run of instructions with no observation point in
  between) instead of per instruction.  Segments end after every CALL --
  the callee's own accounting must start from an exact count -- and, in
  the hooked variant, after every instruction whose hook reads
  ``interp.cycles``.  When the instruction budget could expire inside a
  segment, execution falls back to an exact per-instruction loop so
  :class:`~repro.runtime.interpreter.ExecutionLimitExceeded` fires at
  precisely the same dynamic instruction, with the same partial output,
  as the tree-walker.

Two variants are decoded on demand:

* the **fast** variant (no subclass hooks) runs no hook code at all --
  this is the uninstrumented oracle path;
* the **hooked** variant additionally calls ``on_block_entry`` on every
  transition into one of the interpreter's probe sites (every block
  when it declares none), counts every block entry when
  ``count_blocks`` is set, routes WAIT/SIGNAL/NEXT_ITER through
  ``exec_sync`` and XFER through ``exec_xfer`` (with the original
  :class:`~repro.ir.Instruction`), and counts memory reads when
  ``count_loads`` is set -- everything the profiler and the parallel
  executor need.

Semantics, cycle/instruction accounting and ``RuntimeFault`` diagnostics
are bit-identical to the tree-walker; ``tests/test_backend_differential``
enforces this over the whole example + benchmark corpus.  The only
tolerated divergence: after a *non-limit* ``RuntimeFault`` aborts a run
mid-segment, the dead interpreter's counters may include instructions
from the faulting segment that never executed (no result object is
produced on a fault, so nothing observable depends on them).

This module is also the substrate of the **third tier**, the
superblock-fused code-generated backend in
:mod:`repro.runtime.codegen`: tier 3 reuses this decoder's slot
allocation (:attr:`DecodedFunction.slot_map`) and decoded blocks, and
its exactness fallback resumes tier-2 execution mid-activation through
:func:`finish_decoded` whenever the instruction budget could expire
inside a fused region.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.ir import BasicBlock, Function, Instruction, Opcode
from repro.ir.operands import Const, Symbol, VReg
from repro.ir.types import Type
from repro.runtime.interpreter import (
    _BINARY_HANDLERS,
    ExecutionLimitExceeded,
    Pointer,
    RuntimeFault,
    format_value,
    wrap_int,
)

_INF = float("inf")


class _Undefined:
    """Sentinel filling unwritten register slots."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<undef>"


_UNDEF = _Undefined()


def _undef(operand: VReg, func_name: str) -> None:
    """Raise the tree-walker's undefined-register fault."""
    raise RuntimeFault(f"use of undefined register {operand} in {func_name}")


class DecodedFrame:
    """One activation of a decoded function: slot-file + local arrays."""

    __slots__ = ("func", "slots", "local_mem", "ret")

    def __init__(self, func: Function, nslots: int) -> None:
        self.func = func
        self.slots: List[object] = [_UNDEF] * nslots
        self.local_mem: Dict[str, List] = {}
        self.ret: object = None

    def local_region(self, symbol: Symbol) -> List:
        store = self.local_mem.get(symbol.name)
        if store is None:
            zero = 0.0 if symbol.elem_type is Type.FLOAT else 0
            store = [zero] * symbol.size
            self.local_mem[symbol.name] = store
        return store


#: One charging segment: (total cycles, instruction count, per-op cycles,
#: per-op effects).  The per-op arrays drive the exact slow path.
Segment = Tuple[int, int, Tuple[int, ...], Tuple[Callable, ...]]


class DecodedBlock:
    """A basic block lowered to effect closures plus a fused terminator."""

    __slots__ = (
        "block", "segments", "term", "term_cycles", "probe", "counts", "index",
    )

    def __init__(self, block: BasicBlock, index: int = 0) -> None:
        self.block = block
        self.segments: Tuple[Segment, ...] = ()
        #: Returns the successor DecodedBlock, or None after setting
        #: ``frame.ret`` (RET).  ``None`` when the block never terminates.
        self.term: Optional[Callable[[DecodedFrame], Optional["DecodedBlock"]]] = None
        self.term_cycles = 0
        #: Hooked variant: entering this block calls ``on_block_entry``.
        self.probe = True
        #: Hooked variant with ``count_blocks``: the function's shared
        #: entry counters, bumped at ``counts[index]`` on every entry.
        self.counts: Optional[List[int]] = None
        self.index = index


class DecodedFunction:
    """All blocks of one function, decoded against one interpreter."""

    __slots__ = ("func", "nslots", "param_slots", "entry", "blocks", "slot_map")

    def __init__(
        self,
        func: Function,
        nslots: int,
        param_slots: Tuple[int, ...],
        entry: DecodedBlock,
        blocks: Dict[str, DecodedBlock],
        slot_map: Dict[int, int],
    ) -> None:
        self.func = func
        self.nslots = nslots
        self.param_slots = param_slots
        self.entry = entry
        self.blocks = blocks
        #: VReg uid -> slot index.  The superblock backend
        #: (:mod:`repro.runtime.codegen`) generates code over the same
        #: slot file so its exactness fallback can resume mid-activation
        #: on the same :class:`DecodedFrame`.
        self.slot_map = slot_map


# -- operand resolution -----------------------------------------------------

#: Resolution of one operand at decode time:
#: ("c", value, None) constant / ("s", slot, vreg) register /
#: ("g", getter, None) anything needing a per-frame closure.
_Resolved = Tuple[str, object, Optional[VReg]]


def _symbol_getter(symbol: Symbol, interp) -> Callable:
    """Getter for a Symbol operand decaying to a Pointer (as in
    ``Interpreter.eval_operand``)."""
    if symbol.is_global:
        store = interp.memory.get(symbol.name)
        if store is None:
            # Unknown global: fault at first use, like the tree-walker.
            def getter(frame, _i=interp, _sym=symbol):
                return Pointer(_i.region_of(_sym, frame), 0, _sym.name)

            return getter
        # Global regions are reset in place, so the backing list is
        # stable across runs and the Pointer can be built once.
        pointer = Pointer(store, 0, symbol.name)
        return lambda frame, _p=pointer: _p

    def getter(frame, _sym=symbol):
        return Pointer(frame.local_region(_sym), 0, _sym.name)

    return getter


def _store_getter(symbol: Symbol, interp) -> Callable:
    """Getter for the backing list of a LEA/LOADG/STOREG symbol."""
    if symbol.is_global:
        store = interp.memory.get(symbol.name)
        if store is None:
            def getter(frame, _i=interp, _sym=symbol):
                return _i.region_of(_sym, frame)

            return getter
        return lambda frame, _s=store: _s
    return lambda frame, _sym=symbol: frame.local_region(_sym)


def allocate_slots(func: Function) -> Dict[int, int]:
    """Deterministic VReg uid -> dense frame-slot index map for ``func``.

    Parameters first, then destinations and arguments in block order --
    the same allocation for every decode variant and for the codegen
    tier, so tier-3 generated code and tier-2 fallback blocks always
    agree on the slot file layout (and so the map can be recomputed from
    the IR alone when a cached codegen artifact is instantiated).
    """
    slot_map: Dict[int, int] = {}

    def slot(reg: VReg) -> None:
        if reg.uid not in slot_map:
            slot_map[reg.uid] = len(slot_map)

    for param in func.params:
        slot(param)
    for block in func.blocks.values():
        for instr in block.instructions:
            if instr.dest is not None:
                slot(instr.dest)
            for arg in instr.args:
                if isinstance(arg, VReg):
                    slot(arg)
    return slot_map


class _FunctionDecoder:
    """Decodes one Function against one interpreter instance."""

    def __init__(
        self,
        interp,
        func: Function,
        hooked: bool,
        count_loads: Optional[bool] = None,
    ) -> None:
        self.interp = interp
        self.func = func
        self.hooked = hooked
        # Pinned at decode time (callers cache per flag value) so a later
        # toggle of ``interp.count_loads`` can never skew a cached decode.
        self.count_loads = (
            interp.count_loads if count_loads is None else count_loads
        )
        self.probes = interp.probes_for(func) if hooked else None
        self.counts = (
            interp.block_counter(func)
            if hooked and interp.count_blocks else None
        )
        self.fname = func.name
        self.slot_map: Dict[int, int] = allocate_slots(func)

    # -- slot allocation ----------------------------------------------------

    def _slot(self, reg: VReg) -> int:
        return self.slot_map[reg.uid]

    # -- operand helpers ----------------------------------------------------

    def resolve(self, operand) -> _Resolved:
        if isinstance(operand, Const):
            return ("c", operand.value, None)
        if isinstance(operand, VReg):
            return ("s", self.slot_map[operand.uid], operand)
        return ("g", _symbol_getter(operand, self.interp), None)

    def getter(self, operand) -> Callable:
        """A generic ``getter(frame) -> value`` for any operand."""
        kind, payload, reg = self.resolve(operand)
        if kind == "c":
            return lambda frame, _v=payload: _v
        if kind == "g":
            return payload

        def get(frame, _i=payload, _r=reg, _fn=self.fname):
            v = frame.slots[_i]
            if v is _UNDEF:
                _undef(_r, _fn)
            return v

        return get

    # -- effect factories ---------------------------------------------------

    def _binary(self, instr: Instruction, handler) -> Callable:
        dst = self._slot(instr.dest)
        ra = self.resolve(instr.args[0])
        rb = self.resolve(instr.args[1])
        fn = self.fname
        if ra[0] == "s" and rb[0] == "s":
            def eff(frame, _d=dst, _a=ra[1], _b=rb[1], _h=handler,
                    _ra=ra[2], _rb=rb[2], _fn=fn):
                s = frame.slots
                a = s[_a]
                if a is _UNDEF:
                    _undef(_ra, _fn)
                b = s[_b]
                if b is _UNDEF:
                    _undef(_rb, _fn)
                s[_d] = _h(a, b)
            return eff
        if ra[0] == "s" and rb[0] == "c":
            def eff(frame, _d=dst, _a=ra[1], _bv=rb[1], _h=handler,
                    _ra=ra[2], _fn=fn):
                s = frame.slots
                a = s[_a]
                if a is _UNDEF:
                    _undef(_ra, _fn)
                s[_d] = _h(a, _bv)
            return eff
        if ra[0] == "c" and rb[0] == "s":
            def eff(frame, _d=dst, _av=ra[1], _b=rb[1], _h=handler,
                    _rb=rb[2], _fn=fn):
                s = frame.slots
                b = s[_b]
                if b is _UNDEF:
                    _undef(_rb, _fn)
                s[_d] = _h(_av, b)
            return eff
        ga = self.getter(instr.args[0])
        gb = self.getter(instr.args[1])

        def eff(frame, _d=dst, _ga=ga, _gb=gb, _h=handler):
            frame.slots[_d] = _h(_ga(frame), _gb(frame))

        return eff

    def _mov(self, instr: Instruction) -> Callable:
        dst = self._slot(instr.dest)
        kind, payload, reg = self.resolve(instr.args[0])
        if kind == "s":
            def eff(frame, _d=dst, _a=payload, _r=reg, _fn=self.fname):
                s = frame.slots
                v = s[_a]
                if v is _UNDEF:
                    _undef(_r, _fn)
                s[_d] = v
            return eff
        if kind == "c":
            def eff(frame, _d=dst, _v=payload):
                frame.slots[_d] = _v
            return eff

        def eff(frame, _d=dst, _g=payload):
            frame.slots[_d] = _g(frame)

        return eff

    def _unary(self, instr: Instruction, fn) -> Callable:
        dst = self._slot(instr.dest)
        kind, payload, reg = self.resolve(instr.args[0])
        if kind == "s":
            def eff(frame, _d=dst, _a=payload, _u=fn, _r=reg, _fn=self.fname):
                s = frame.slots
                v = s[_a]
                if v is _UNDEF:
                    _undef(_r, _fn)
                s[_d] = _u(v)
            return eff
        getter = self.getter(instr.args[0])

        def eff(frame, _d=dst, _g=getter, _u=fn):
            frame.slots[_d] = _u(_g(frame))

        return eff

    def _lea(self, instr: Instruction) -> Callable:
        dst = self._slot(instr.dest)
        symbol = instr.args[0]
        name = symbol.name
        kind, payload, reg = self.resolve(instr.args[1])
        store = None
        if symbol.is_global:
            store = self.interp.memory.get(symbol.name)
        if store is not None:
            if kind == "s":
                def eff(frame, _d=dst, _ii=payload, _st=store, _n=name,
                        _r=reg, _fn=self.fname):
                    s = frame.slots
                    i = s[_ii]
                    if i is _UNDEF:
                        _undef(_r, _fn)
                    s[_d] = Pointer(_st, i, _n)
                return eff
            if kind == "c":
                pointer = Pointer(store, payload, name)

                def eff(frame, _d=dst, _p=pointer):
                    frame.slots[_d] = _p
                return eff
        sg = _store_getter(symbol, self.interp)
        gi = self.getter(instr.args[1])

        def eff(frame, _d=dst, _sg=sg, _gi=gi, _n=name):
            frame.slots[_d] = Pointer(_sg(frame), _gi(frame), _n)

        return eff

    def _ptradd(self, instr: Instruction) -> Callable:
        dst = self._slot(instr.dest)
        gp = self.getter(instr.args[0])
        kind, payload, reg = self.resolve(instr.args[1])
        if kind == "s":
            def eff(frame, _d=dst, _gp=gp, _id=payload, _r=reg,
                    _fn=self.fname):
                s = frame.slots
                p = _gp(frame)
                d = s[_id]
                if d is _UNDEF:
                    _undef(_r, _fn)
                if not isinstance(p, Pointer):
                    raise RuntimeFault(f"PTRADD on non-pointer {p!r}")
                s[_d] = Pointer(p.store, p.base + d, p.region)
            return eff
        gd = self.getter(instr.args[1])

        def eff(frame, _d=dst, _gp=gp, _gd=gd):
            p = _gp(frame)
            d = _gd(frame)
            if not isinstance(p, Pointer):
                raise RuntimeFault(f"PTRADD on non-pointer {p!r}")
            frame.slots[_d] = Pointer(p.store, p.base + d, p.region)

        return eff

    def _loadg(self, instr: Instruction) -> Callable:
        dst = self._slot(instr.dest)
        symbol = instr.args[0]
        name = symbol.name
        kind, payload, reg = self.resolve(instr.args[1])
        store = None
        if symbol.is_global:
            store = self.interp.memory.get(symbol.name)
        if store is not None and kind == "s":
            def eff(frame, _d=dst, _ii=payload, _st=store, _n=name,
                    _r=reg, _fn=self.fname):
                s = frame.slots
                i = s[_ii]
                if i is _UNDEF:
                    _undef(_r, _fn)
                if i < 0 or i >= len(_st):
                    raise RuntimeFault(
                        f"load out of bounds: {_n}[{i}] (size {len(_st)})"
                    )
                s[_d] = _st[i]
            return eff
        sg = _store_getter(symbol, self.interp)
        gi = self.getter(instr.args[1])

        def eff(frame, _d=dst, _sg=sg, _gi=gi, _n=name):
            st = _sg(frame)
            i = _gi(frame)
            if i < 0 or i >= len(st):
                raise RuntimeFault(
                    f"load out of bounds: {_n}[{i}] (size {len(st)})"
                )
            frame.slots[_d] = st[i]

        return eff

    def _storeg(self, instr: Instruction) -> Callable:
        symbol = instr.args[0]
        name = symbol.name
        ri = self.resolve(instr.args[1])
        rv = self.resolve(instr.args[2])
        store = None
        if symbol.is_global:
            store = self.interp.memory.get(symbol.name)
        if store is not None and ri[0] == "s" and rv[0] == "s":
            def eff(frame, _ii=ri[1], _iv=rv[1], _st=store, _n=name,
                    _ri=ri[2], _rv=rv[2], _fn=self.fname):
                s = frame.slots
                i = s[_ii]
                if i is _UNDEF:
                    _undef(_ri, _fn)
                v = s[_iv]
                if v is _UNDEF:
                    _undef(_rv, _fn)
                if i < 0 or i >= len(_st):
                    raise RuntimeFault(
                        f"store out of bounds: {_n}[{i}] (size {len(_st)})"
                    )
                _st[i] = v
            return eff
        sg = _store_getter(symbol, self.interp)
        gi = self.getter(instr.args[1])
        gv = self.getter(instr.args[2])

        def eff(frame, _sg=sg, _gi=gi, _gv=gv, _n=name):
            i = _gi(frame)
            v = _gv(frame)
            st = _sg(frame)
            if i < 0 or i >= len(st):
                raise RuntimeFault(
                    f"store out of bounds: {_n}[{i}] (size {len(st)})"
                )
            st[i] = v

        return eff

    def _loadp(self, instr: Instruction) -> Callable:
        dst = self._slot(instr.dest)
        gp = self.getter(instr.args[0])
        gi = self.getter(instr.args[1])

        def eff(frame, _d=dst, _gp=gp, _gi=gi):
            p = _gp(frame)
            i = _gi(frame)
            if not isinstance(p, Pointer):
                raise RuntimeFault(f"LOADP on non-pointer {p!r}")
            st = p.store
            j = p.base + i
            if j < 0 or j >= len(st):
                raise RuntimeFault(
                    f"load out of bounds: {p.region}[{j}] (size {len(st)})"
                )
            frame.slots[_d] = st[j]

        return eff

    def _storep(self, instr: Instruction) -> Callable:
        gp = self.getter(instr.args[0])
        gi = self.getter(instr.args[1])
        gv = self.getter(instr.args[2])

        def eff(frame, _gp=gp, _gi=gi, _gv=gv):
            p = _gp(frame)
            i = _gi(frame)
            v = _gv(frame)
            if not isinstance(p, Pointer):
                raise RuntimeFault(f"STOREP on non-pointer {p!r}")
            st = p.store
            j = p.base + i
            if j < 0 or j >= len(st):
                raise RuntimeFault(
                    f"store out of bounds: {p.region}[{j}] (size {len(st)})"
                )
            st[j] = v

        return eff

    def _call(self, instr: Instruction) -> Callable:
        interp = self.interp
        getters = tuple(self.getter(a) for a in instr.args)
        dst = self._slot(instr.dest) if instr.dest is not None else None
        callee = interp.module.functions.get(instr.callee)
        if callee is None:
            # Unknown callee: fault (KeyError) at execution time, after
            # the arguments are evaluated -- exactly like the tree-walker.
            def eff(frame, _i=interp, _n=instr.callee, _gs=getters, _d=dst):
                args = [g(frame) for g in _gs]
                value = _i.call_function(_i.module.functions[_n], args)
                if _d is not None:
                    frame.slots[_d] = value
            return eff

        def eff(frame, _i=interp, _f=callee, _gs=getters, _d=dst):
            args = [g(frame) for g in _gs]
            value = _i.call_function(_f, args)
            if _d is not None:
                frame.slots[_d] = value

        return eff

    def _print(self, instr: Instruction) -> Callable:
        interp = self.interp
        getter = self.getter(instr.args[0])

        def eff(frame, _i=interp, _g=getter):
            _i.output.append(format_value(_g(frame)))

        return eff

    @staticmethod
    def _nop(frame) -> None:
        return None

    def _effect(self, instr: Instruction) -> Callable:
        opcode = instr.opcode
        if opcode is Opcode.MOV:
            return self._mov(instr)
        handler = _BINARY_HANDLERS.get(opcode)
        if handler is not None:
            return self._binary(instr, handler)
        if opcode is Opcode.NEG:
            return self._unary(instr, _neg)
        if opcode is Opcode.NOT:
            return self._unary(instr, _not)
        if opcode is Opcode.ITOF:
            return self._unary(instr, float)
        if opcode is Opcode.FTOI:
            return self._unary(instr, _ftoi)
        if opcode is Opcode.LEA:
            return self._lea(instr)
        if opcode is Opcode.PTRADD:
            return self._ptradd(instr)
        if opcode is Opcode.LOADG:
            return self._wrap_load(self._loadg(instr))
        if opcode is Opcode.STOREG:
            return self._storeg(instr)
        if opcode is Opcode.LOADP:
            return self._wrap_load(self._loadp(instr))
        if opcode is Opcode.STOREP:
            return self._storep(instr)
        if opcode is Opcode.CALL:
            return self._call(instr)
        if opcode is Opcode.PRINT:
            return self._print(instr)
        if opcode in (Opcode.WAIT, Opcode.SIGNAL, Opcode.NEXT_ITER):
            if not self.hooked:
                return self._nop

            def eff(frame, _i=self.interp, _instr=instr):
                _i.exec_sync(frame, _instr)
            return eff
        if opcode is Opcode.XFER:
            if not self.hooked:
                return self._nop

            def eff(frame, _i=self.interp, _instr=instr):
                _i.exec_xfer(frame, _instr)
            return eff

        # Verifier-rejected shapes: fault at execution, like the walker.
        def eff(frame, _op=opcode):  # pragma: no cover - defensive
            raise RuntimeFault(f"cannot execute opcode {_op}")

        return eff

    def _wrap_load(self, eff: Callable) -> Callable:
        """Count memory reads for the parallel executor (hooked only)."""
        if not (self.hooked and self.count_loads):
            return eff

        def counting(frame, _i=self.interp, _e=eff):
            _i.load_count += 1
            _e(frame)

        return counting

    # -- terminators --------------------------------------------------------

    def _terminator(
        self, instr: Instruction, blocks: Dict[str, DecodedBlock]
    ) -> Callable:
        opcode = instr.opcode
        if opcode is Opcode.RET:
            if instr.args:
                getter = self.getter(instr.args[0])

                def term(frame, _g=getter):
                    frame.ret = _g(frame)
                    return None
                return term

            def term(frame):
                frame.ret = None
                return None
            return term

        targets = [blocks.get(name) for name in instr.targets]
        if any(t is None for t in targets):
            # Dangling branch target: KeyError at execution time, matching
            # the tree-walker's ``func.blocks[name]`` lookup.
            func_blocks = self.func.blocks

            def term(frame, _i=instr, _bs=blocks, _fb=func_blocks):
                cond = True
                if _i.opcode is Opcode.CBR:
                    cond = self.getter(_i.args[0])(frame) != 0
                name = _i.targets[0] if cond else _i.targets[1]
                _fb[name]  # raises KeyError for unknown targets
                return _bs[name]
            return term

        if opcode is Opcode.BR:
            return lambda frame, _t=targets[0]: _t

        # CBR
        kind, payload, reg = self.resolve(instr.args[0])
        if kind == "s":
            def term(frame, _ic=payload, _r=reg, _fn=self.fname,
                     _t1=targets[0], _t2=targets[1]):
                c = frame.slots[_ic]
                if c is _UNDEF:
                    _undef(_r, _fn)
                return _t1 if c != 0 else _t2
            return term
        getter = self.getter(instr.args[0])

        def term(frame, _g=getter, _t1=targets[0], _t2=targets[1]):
            return _t1 if _g(frame) != 0 else _t2

        return term

    # -- block / function assembly ------------------------------------------

    def decode(self) -> DecodedFunction:
        blocks = {
            name: DecodedBlock(block, index)
            for index, (name, block) in enumerate(self.func.blocks.items())
        }
        if self.hooked:
            probes = self.probes
            for name, dblock in blocks.items():
                dblock.probe = probes is None or name in probes
                dblock.counts = self.counts
        cost_model = self.interp.cost_model
        # Segment boundaries: observation points whose hooks (or callee
        # accounting) must see exact cycle/instruction counts.
        split_after = {Opcode.CALL}
        if self.hooked:
            split_after |= {
                Opcode.WAIT, Opcode.SIGNAL, Opcode.NEXT_ITER, Opcode.XFER
            }

        for name, dblock in blocks.items():
            block = self.func.blocks[name]
            segments: List[Segment] = []
            cycles: List[int] = []
            effects: List[Callable] = []

            def flush() -> None:
                if effects:
                    segments.append(
                        (sum(cycles), len(effects), tuple(cycles),
                         tuple(effects))
                    )
                    cycles.clear()
                    effects.clear()

            for instr in block.instructions:
                if instr.is_terminator:
                    dblock.term_cycles = cost_model.cycles(
                        instr.opcode,
                        instr.dest is not None
                        and instr.dest.type is Type.FLOAT,
                    )
                    dblock.term = self._terminator(instr, blocks)
                    break
                is_float = (
                    instr.dest is not None
                    and instr.dest.type is Type.FLOAT
                )
                cycles.append(cost_model.cycles(instr.opcode, is_float))
                effects.append(self._effect(instr))
                if instr.opcode in split_after:
                    flush()
            flush()
            dblock.segments = tuple(segments)

        entry = blocks[self.func.entry.name]
        param_slots = tuple(
            self.slot_map[param.uid] for param in self.func.params
        )
        return DecodedFunction(
            self.func, len(self.slot_map), param_slots, entry, blocks,
            self.slot_map,
        )


def _neg(a):
    return wrap_int(-a) if isinstance(a, int) else -a


def _not(a):
    return 1 if a == 0 else 0


def _ftoi(a):
    return wrap_int(int(a))


def decode_function(
    interp,
    func: Function,
    hooked: bool,
    count_loads: Optional[bool] = None,
) -> DecodedFunction:
    """Decode ``func`` once against ``interp`` (one variant)."""
    return _FunctionDecoder(interp, func, hooked, count_loads).decode()


# -- execution ---------------------------------------------------------------


def execute_decoded(interp, dfunc: DecodedFunction, frame: DecodedFrame,
                    hooked: bool) -> object:
    """Run one activation of a decoded function to its RET."""
    limit = interp.max_instructions
    if limit is None:
        limit = _INF
    if not hooked:
        finish_decoded(interp, frame, dfunc.entry, 0, limit)
        return frame.ret
    entry = dfunc.entry
    if entry.counts is not None:
        entry.counts[entry.index] += 1
    if entry.probe:
        interp.on_block_entry(frame, None, entry.block)
    finish_hooked(interp, frame, entry, 0, limit)
    return frame.ret


def finish_hooked(interp, frame: DecodedFrame, dblock: DecodedBlock,
                  seg_index: int = 0, limit: Optional[float] = None) -> None:
    """Run the rest of a *hooked-variant* activation exactly, to its RET.

    The hooked sibling of :func:`finish_decoded`: starts at ``dblock``'s
    ``seg_index``-th segment *without* re-calling ``on_block_entry`` for
    the current block (the caller -- :func:`execute_decoded` at an
    activation entry, or the hooked superblock tier mid-chain -- has
    already announced it), then counts and announces every subsequent
    block transition exactly as the tree-walker does (the hook only
    into probe sites).  The hooked superblock backend
    (:mod:`repro.runtime.codegen`) diverts here when the instruction
    budget could expire inside a fused region; hooked tier-2 segments
    split after every CALL and sync/xfer opcode, so the generated
    code's anchors align with ``seg_index``.
    """
    if limit is None:
        limit = _INF
    db = dblock
    segments = db.segments[seg_index:] if seg_index else db.segments
    while True:
        for total, count, op_cycles, effects in segments:
            n = interp.instructions + count
            if n <= limit:
                interp.instructions = n
                interp.cycles += total
                for eff in effects:
                    eff(frame)
            else:
                _run_segment_exact(interp, frame, op_cycles, effects, limit)
        term = db.term
        if term is None:
            raise RuntimeFault(
                f"block {db.block.name} fell through without terminator"
            )
        interp.cycles += db.term_cycles
        n = interp.instructions + 1
        interp.instructions = n
        if n > limit:
            raise ExecutionLimitExceeded(
                f"exceeded {interp.max_instructions} instructions"
            )
        nxt = term(frame)
        if nxt is None:
            return
        counts = nxt.counts
        if counts is not None:
            counts[nxt.index] += 1
        if nxt.probe:
            interp.on_block_entry(frame, db.block, nxt.block)
        db = nxt
        segments = db.segments


def finish_decoded(interp, frame: DecodedFrame, dblock: DecodedBlock,
                   seg_index: int = 0, limit: Optional[float] = None) -> None:
    """Run the rest of a *fast-variant* activation exactly, to its RET.

    Starts at ``dblock``'s ``seg_index``-th segment and follows
    terminators through successor blocks until the activation completes
    (``frame.ret`` is set) or faults.  This is both the fast variant of
    :func:`execute_decoded` (entry block, segment 0) and the exactness
    fallback of the superblock backend (:mod:`repro.runtime.codegen`):
    when the instruction budget could expire inside a fused region, the
    generated code diverts here at a segment boundary -- tier-2 segments
    split after every CALL, so the boundaries of both backends align --
    and the per-instruction slow path fires the limit at precisely the
    same dynamic instruction as the tree-walker.
    """
    if limit is None:
        limit = _INF
    db = dblock
    segments = db.segments[seg_index:] if seg_index else db.segments
    while True:
        for total, count, op_cycles, effects in segments:
            n = interp.instructions + count
            if n <= limit:
                interp.instructions = n
                interp.cycles += total
                for eff in effects:
                    eff(frame)
            else:
                _run_segment_exact(interp, frame, op_cycles, effects, limit)
        term = db.term
        if term is None:
            raise RuntimeFault(
                f"block {db.block.name} fell through without terminator"
            )
        interp.cycles += db.term_cycles
        n = interp.instructions + 1
        interp.instructions = n
        if n > limit:
            raise ExecutionLimitExceeded(
                f"exceeded {interp.max_instructions} instructions"
            )
        nxt = term(frame)
        if nxt is None:
            return
        db = nxt
        segments = db.segments


def _run_segment_exact(interp, frame, op_cycles, effects, limit) -> None:
    """Per-instruction fallback when the budget expires inside a segment:
    charges and faults at exactly the same instruction as the walker."""
    for c, eff in zip(op_cycles, effects):
        interp.cycles += c
        n = interp.instructions + 1
        interp.instructions = n
        if n > limit:
            raise ExecutionLimitExceeded(
                f"exceeded {interp.max_instructions} instructions"
            )
        eff(frame)
