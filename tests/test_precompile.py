"""Unit tests for the pre-decoded interpreter backend.

Whole-program identity with the tree-walker lives in
``test_backend_differential``; these tests pin down the decode layer's
mechanics — slot allocation, backend selection, fault/limit parity on
constructed edge cases, and decode caching.
"""

import pytest

from repro.frontend import compile_source
from repro.ir import Function, Instruction, IRBuilder, Module, Opcode
from repro.ir.operands import Const, VReg
from repro.ir.types import Type
from repro.runtime import (
    ExecutionLimitExceeded,
    Interpreter,
    RuntimeFault,
    run_module,
)
from repro.runtime import precompile
from repro.runtime.interpreter import (
    _BACKEND_FAST,
    _BACKEND_HOOKED,
    _BACKEND_HOOKED_SUPER,
    _BACKEND_SUPER,
    _BACKEND_TREE,
)

COUNT_SRC = """
int total;
void main() {
    int i;
    for (i = 0; i < 50; i++) { total = total + i; }
    print(total);
}
"""


def _fault_message(module, backend, **kwargs):
    with pytest.raises(RuntimeFault) as excinfo:
        run_module(module, backend=backend, **kwargs)
    return str(excinfo.value)


class TestSlotAllocation:
    def test_registers_get_dense_distinct_slots(self):
        module = compile_source(COUNT_SRC)
        interp = Interpreter(module)
        dfunc = precompile.decode_function(
            interp, module.functions["main"], hooked=False
        )
        uids = set()
        for block in module.functions["main"].blocks.values():
            for instr in block.instructions:
                if instr.dest is not None:
                    uids.add(instr.dest.uid)
                for arg in instr.args:
                    if isinstance(arg, VReg):
                        uids.add(arg.uid)
        assert dfunc.nslots == len(uids)

    def test_param_slots_receive_arguments(self):
        module = compile_source(
            "int add3(int a, int b, int c) { return a + b + c; }\n"
            "void main() { print(add3(1, 2, 3)); }"
        )
        interp = Interpreter(module)
        func = module.functions["add3"]
        dfunc = precompile.decode_function(interp, func, hooked=False)
        assert len(dfunc.param_slots) == 3
        assert len(set(dfunc.param_slots)) == 3
        assert all(0 <= s < dfunc.nslots for s in dfunc.param_slots)
        assert run_module(module, backend="decoded").output == ["6"]


class TestBackendSelection:
    def test_plain_interpreter_uses_superblock_path(self):
        interp = Interpreter(compile_source(COUNT_SRC))
        assert interp._backend_mode() == _BACKEND_SUPER

    def test_backend_decoded_pins_fast_variant(self):
        interp = Interpreter(compile_source(COUNT_SRC), backend="decoded")
        assert interp._backend_mode() == _BACKEND_FAST

    def test_count_blocks_selects_hooked_tiers(self):
        interp = Interpreter(compile_source(COUNT_SRC))
        interp.count_blocks = True
        assert interp._backend_mode() == _BACKEND_HOOKED_SUPER
        interp.count_blocks = False
        assert interp._backend_mode() == _BACKEND_SUPER
        pinned = Interpreter(compile_source(COUNT_SRC), backend="decoded")
        pinned.count_blocks = True
        assert pinned._backend_mode() == _BACKEND_HOOKED

    def test_count_loads_selects_hooked_superblock_tier(self):
        interp = Interpreter(compile_source(COUNT_SRC))
        interp.count_loads = True
        assert interp._backend_mode() == _BACKEND_HOOKED_SUPER

    def test_count_loads_with_decoded_backend_selects_hooked_variant(self):
        interp = Interpreter(compile_source(COUNT_SRC), backend="decoded")
        interp.count_loads = True
        assert interp._backend_mode() == _BACKEND_HOOKED

    def test_core_override_subclass_falls_back_to_tree(self):
        class Tracing(Interpreter):
            def exec_instr(self, frame, instr):
                return super().exec_instr(frame, instr)

        interp = Tracing(compile_source(COUNT_SRC))
        assert interp._backend_mode() == _BACKEND_TREE

    def test_instance_core_monkeypatch_falls_back_to_tree(self):
        interp = Interpreter(compile_source(COUNT_SRC))
        interp.exec_instr = lambda frame, instr: None
        assert interp._backend_mode() == _BACKEND_TREE

    def test_instance_hook_monkeypatch_selects_hooked_superblock(self):
        interp = Interpreter(compile_source(COUNT_SRC))
        interp.exec_sync = lambda frame, instr: None
        assert interp._backend_mode() == _BACKEND_HOOKED_SUPER

    def test_hook_override_subclass_selects_hooked_superblock(self):
        class Hooked(Interpreter):
            def on_block_entry(self, frame, prev, block):
                pass

        interp = Hooked(compile_source(COUNT_SRC))
        assert interp._backend_mode() == _BACKEND_HOOKED_SUPER

    def test_backend_tree_forces_walker(self):
        interp = Interpreter(compile_source(COUNT_SRC), backend="tree")
        assert interp._backend_mode() == _BACKEND_TREE

    def test_backend_decoded_rejects_core_overrides(self):
        class Tracing(Interpreter):
            def eval_operand(self, operand, frame):
                return super().eval_operand(operand, frame)

        with pytest.raises(ValueError, match="eval_operand"):
            Tracing(compile_source(COUNT_SRC), backend="decoded")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            Interpreter(compile_source(COUNT_SRC), backend="jit")

    def test_tree_and_decoded_results_match(self):
        module = compile_source(COUNT_SRC)
        tree = run_module(module, backend="tree")
        decoded = run_module(module, backend="decoded")
        assert tree.to_dict() == decoded.to_dict()


class TestFaultParity:
    def test_undefined_register_message(self):
        module = Module()
        func = Function("main", Type.INT)
        module.add_function(func)
        b = IRBuilder(func)
        b.start_block("entry")
        ghost = VReg(uid=999, type=Type.INT, name="ghost")
        b.emit(
            Instruction(
                Opcode.ADD,
                dest=VReg(uid=1000, type=Type.INT),
                args=(ghost, Const.int(1)),
            )
        )
        b.ret(Const.int(0))
        assert _fault_message(module, "tree") == _fault_message(
            module, "decoded"
        )
        assert "undefined register" in _fault_message(module, "decoded")

    @pytest.mark.parametrize(
        "body,decls",
        [
            ("print(a[7]);", "int a[4];"),
            ("a[0 - 1] = 1;", "int a[4];"),
            ("int *p = &a[2]; print(p[5]);", "int a[4];"),
            ("int *p = &a[2]; p[5] = 1;", "int a[4];"),
            ("int z = 0; print(1 / z);", ""),
            ("int z = 0; print(1 % z);", ""),
            ("int s = 64; print(1 << s);", ""),
        ],
    )
    def test_fault_messages_identical(self, body, decls):
        module = compile_source(f"{decls}\nvoid main() {{ {body} }}")
        assert _fault_message(module, "tree") == _fault_message(
            module, "decoded"
        )

    def test_unterminated_block_message(self):
        module = Module()
        func = Function("main")
        module.add_function(func)
        b = IRBuilder(func)
        b.start_block("entry")
        b.mov(Const.int(1))  # no terminator follows
        assert _fault_message(module, "tree") == _fault_message(
            module, "decoded"
        )
        assert "without terminator" in _fault_message(module, "decoded")


class TestLimitParity:
    def _run_limited(self, module, backend, limit):
        interp = Interpreter(module, max_instructions=limit, backend=backend)
        with pytest.raises(ExecutionLimitExceeded) as excinfo:
            interp.run()
        return str(excinfo.value), list(interp.output), interp.instructions

    @pytest.mark.parametrize("limit", [1, 7, 50, 123, 499])
    def test_limit_fires_at_identical_instruction(self, limit):
        module = compile_source(
            """
            void main() {
                int i = 0;
                while (1) { print(i); i = i + 1; }
            }
            """
        )
        tree = self._run_limited(module, "tree", limit)
        decoded = self._run_limited(module, "decoded", limit)
        assert tree == decoded

    def test_limit_parity_across_calls(self):
        module = compile_source(
            """
            int f(int n) { print(n); return n * 2; }
            void main() {
                int i;
                for (i = 0; i < 100; i++) { f(i); }
            }
            """
        )
        reference = run_module(module, backend="tree")
        for limit in (5, 37, reference.instructions - 1):
            tree = self._run_limited(module, "tree", limit)
            decoded = self._run_limited(module, "decoded", limit)
            assert tree == decoded

    def test_exact_budget_completes_on_both(self):
        module = compile_source(COUNT_SRC)
        reference = run_module(module, backend="tree")
        limit = reference.instructions
        tree = run_module(module, backend="tree", max_instructions=limit)
        decoded = run_module(module, backend="decoded", max_instructions=limit)
        assert tree.to_dict() == decoded.to_dict() == reference.to_dict()


class TestDecodedState:
    def test_memory_resets_between_runs(self):
        module = compile_source(
            "int g;\nvoid main() { g = g + 1; print(g); }"
        )
        interp = Interpreter(module, backend="decoded")
        assert interp.run().output == ["1"]
        assert interp.run().output == ["1"]

    def test_decode_cache_reused_across_runs(self):
        module = compile_source(COUNT_SRC)
        interp = Interpreter(module, backend="decoded")
        interp.run()
        cached = dict(interp._decoded)
        interp.run()
        assert interp._decoded == cached  # no re-decode on the second run

    def test_hooked_and_fast_variants_cached_separately(self):
        module = compile_source(COUNT_SRC)
        interp = Interpreter(module, backend="decoded")
        interp.run()
        interp.count_loads = True
        interp.run()
        hooked_flags = {key[2] for key in interp._decoded}
        assert hooked_flags == {False, True}

    def test_hook_events_match_tree_backend(self):
        module = compile_source(COUNT_SRC)

        class Events(Interpreter):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.events = []

            def on_block_entry(self, frame, prev, block):
                self.events.append(
                    (frame.func.name, prev.name if prev else None,
                     block.name, self.cycles)
                )

            def call_function(self, func, args):
                self.events.append((func.name, True, self.cycles))
                value = super().call_function(func, args)
                self.events.append((func.name, False, self.cycles))
                return value

        def collect(backend):
            interp = Events(module, backend=backend)
            interp.run()
            return interp.events

        assert len(collect("tree")) > 50
        assert collect("tree") == collect("decoded")
