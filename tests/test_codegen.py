"""Unit and property tests for the superblock code-generated backend.

``test_backend_differential`` proves whole-corpus identity; these tests
pin down the tier-3 mechanics in isolation: superblock formation (chain
shapes, profile-guided hot-arm choice, the chain-length bound),
fault/limit parity on adversarial programs including mid-superblock
expiry, backend selection and validation, the fused address+memory and
compare+branch specializations, and the ``interp.superblock.*`` /
``interp.codegen.*`` observability counters.
"""

import re

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.frontend import compile_source
from repro.ir import Function, IRBuilder, Module, Opcode
from repro.ir.operands import Const
from repro.ir.types import Type
from repro.obs.metrics import REGISTRY, metrics_delta
from repro.runtime import (
    ExecutionLimitExceeded,
    Interpreter,
    RuntimeFault,
    run_module,
)
from repro.runtime.codegen import (
    MAX_CHAIN_BLOCKS,
    compile_superblocks,
    form_superblocks,
)
from repro.runtime.interpreter import (
    _BACKEND_HOOKED_SUPER,
    _BACKEND_SUPER,
)

BACKENDS = ("tree", "decoded", "superblock")

LOOP_SRC = """
void main() {
    int i = 0;
    while (1) { print(i); i = i + 1; }
}
"""

_loop_module = compile_source(LOOP_SRC)


def _chains(module, name="main", profile=None):
    return form_superblocks(module.functions[name], profile)


# ---------------------------------------------------------------- formation


class TestFormation:
    def test_every_block_in_exactly_one_chain(self):
        module = compile_source(
            """
            int f(int n) { if (n < 2) { return n; } return f(n - 1); }
            void main() {
                int i;
                for (i = 0; i < 5; i++) { print(f(i)); }
            }
            """
        )
        for func in module.functions.values():
            chains = form_superblocks(func)
            flat = [b for chain in chains for b in chain]
            assert sorted(flat) == sorted(func.blocks)
            assert len(flat) == len(set(flat))

    def test_entry_heads_first_chain(self):
        chains = _chains(_loop_module)
        assert chains[0][0] == _loop_module.functions["main"].entry.name

    def test_straightline_blocks_collapse_to_one_chain(self):
        module = Module()
        func = Function("main")
        module.add_function(func)
        b = IRBuilder(func)
        entry = b.start_block("entry")
        mid = b.new_block("mid")
        tail = b.new_block("tail")
        b.br(mid)
        b.set_block(mid)
        b.br(tail)
        b.set_block(tail)
        b.ret()
        assert form_superblocks(func) == [[entry.name, mid.name, tail.name]]

    def test_join_block_starts_its_own_chain(self):
        # Diamond: the join has two predecessors, so neither arm may
        # absorb it -- it must head a chain of its own.
        module = compile_source(
            """
            void main(int n) {
                if (n) { print(1); } else { print(2); }
                print(3);
            }
            """
        )
        func = module.functions["main"]
        chains = form_superblocks(func)
        preds = {}
        for block in func.blocks.values():
            for instr in block.instructions:
                if instr.opcode in (Opcode.BR, Opcode.CBR):
                    for t in instr.targets:
                        preds[t] = preds.get(t, 0) + 1
                    break
        joins = {name for name, count in preds.items() if count > 1}
        assert joins
        heads = {chain[0] for chain in chains}
        assert joins <= heads

    def test_side_exits_target_chain_heads(self):
        # The invariant the generated dispatch relies on: any block a
        # chain branches out to heads some chain.
        for name, func in compile_source(LOOP_SRC).functions.items():
            chains = form_superblocks(func)
            heads = {chain[0] for chain in chains}
            member = {b for chain in chains for b in chain}
            for block in func.blocks.values():
                for instr in block.instructions:
                    if instr.opcode in (Opcode.BR, Opcode.CBR):
                        for target in instr.targets:
                            chain = next(c for c in chains if block.name in c)
                            follows = (
                                block.name != chain[-1]
                                and chain[chain.index(block.name) + 1]
                                == target
                            )
                            if not follows and target in member:
                                assert target in heads
                        break

    def test_profile_prefers_hot_arm(self):
        def build():
            module = Module()
            func = Function("main")
            module.add_function(func)
            b = IRBuilder(func)
            b.start_block("entry")
            cond = b.mov(Const.int(1))
            cold = b.new_block("cold")
            hot = b.new_block("hot")
            b.cbr(cond, cold, hot)
            for block in (cold, hot):
                b.set_block(block)
                b.ret()
            return func, cold.name, hot.name

        func, cold, hot = build()
        profile = {("main", hot): 1000, ("main", cold): 3}
        chains = form_superblocks(func, profile)
        assert chains[0][1] == hot
        # Reversing the temperatures reverses the fused arm.
        chains = form_superblocks(func, {("main", cold): 9, ("main", hot): 1})
        assert chains[0][1] == cold

    def test_chain_length_is_bounded(self):
        module = Module()
        func = Function("main")
        module.add_function(func)
        b = IRBuilder(func)
        b.start_block("entry")
        blocks = [b.new_block(f"b{i}") for i in range(MAX_CHAIN_BLOCKS + 10)]
        b.br(blocks[0])
        for current, nxt in zip(blocks, blocks[1:]):
            b.set_block(current)
            b.br(nxt)
        b.set_block(blocks[-1])
        b.ret()
        chains = form_superblocks(func)
        assert max(len(chain) for chain in chains) == MAX_CHAIN_BLOCKS
        flat = [name for chain in chains for name in chain]
        assert sorted(flat) == sorted(func.blocks)


# ------------------------------------------------------------- generated code


class TestGeneratedCode:
    def test_source_is_kept_on_the_compiled_function(self):
        interp = Interpreter(_loop_module, max_instructions=100)
        with pytest.raises(ExecutionLimitExceeded):
            interp.run()
        func = _loop_module.functions["main"]
        sfunc = interp._superblocks[("main", func.version)]
        assert "def __sb" in sfunc.source
        assert sfunc.entry.max_instructions > 0

    def test_superblock_cache_reused_across_runs(self):
        module = compile_source(
            "int g;\nvoid main() { g = g + 1; print(g); }"
        )
        interp = Interpreter(module, backend="superblock")
        assert interp.run().output == ["1"]
        cached = dict(interp._superblocks)
        assert interp.run().output == ["1"]  # memory reset between runs
        assert interp._superblocks == cached  # no recompilation

    def test_fused_pointer_pairs_behave_identically(self):
        module = compile_source(
            """
            int a[4];
            void main() {
                int *p = &a[1];
                p[2] = 7;
                print(a[3]);
                a[0] = 5;
                print(p[0 - 1]);
                print(a[2 - 1]);
            }
            """
        )
        oracle = run_module(module, backend="tree").to_dict()
        for backend in ("decoded", "superblock"):
            assert run_module(module, backend=backend).to_dict() == oracle

    def test_recursion_identity(self):
        module = compile_source(
            """
            int fib(int n) {
                if (n < 2) { return n; }
                return fib(n - 1) + fib(n - 2);
            }
            void main() { print(fib(12)); }
            """
        )
        oracle = run_module(module, backend="tree").to_dict()
        for backend in ("decoded", "superblock"):
            assert run_module(module, backend=backend).to_dict() == oracle

    def test_zero_iteration_loops(self):
        module = compile_source(
            """
            void main() {
                int i;
                int n = 0;
                for (i = 0; i < n; i++) { print(i); }
                while (n) { n = n - 1; print(n); }
                print(42);
            }
            """
        )
        oracle = run_module(module, backend="tree").to_dict()
        assert oracle["output"] == ["42"]
        for backend in ("decoded", "superblock"):
            assert run_module(module, backend=backend).to_dict() == oracle


# ------------------------------------------------------------- fault parity


def _fault(module, backend, **kwargs):
    interp = Interpreter(module, backend=backend, **kwargs)
    with pytest.raises(RuntimeFault) as excinfo:
        interp.run()
    return str(excinfo.value), list(interp.output)


class TestFaultParity:
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
            ("int s = 0 - 1; print(4 >> s);", ""),
        ],
    )
    def test_fault_messages_and_output_identical(self, body, decls):
        module = compile_source(f"{decls}\nvoid main() {{ {body} }}")
        tree = _fault(module, "tree")
        for backend in ("decoded", "superblock"):
            assert _fault(module, backend) == tree

    def test_fault_mid_superblock_after_partial_output(self):
        # The fused region has already printed when the fault fires;
        # the partial output and the message must match the walker's.
        module = compile_source(
            """
            int a[4];
            void main() {
                int i;
                for (i = 0; i < 3; i++) { print(i); }
                print(a[9]);
            }
            """
        )
        tree = _fault(module, "tree")
        assert tree[1] == ["0", "1", "2"]
        for backend in ("decoded", "superblock"):
            assert _fault(module, backend) == tree

    @settings(max_examples=20, deadline=None)
    @given(idx=st.integers(min_value=-6, max_value=12))
    def test_indexing_identity_or_identical_fault(self, idx):
        module = compile_source(
            f"""
            int a[8];
            void main() {{
                int i;
                for (i = 0; i < 8; i++) {{ a[i] = i * i; }}
                print(a[{idx}]);
            }}
            """
        )
        if 0 <= idx < 8:
            oracle = run_module(module, backend="tree").to_dict()
            for backend in ("decoded", "superblock"):
                assert run_module(module, backend=backend).to_dict() == oracle
        else:
            tree = _fault(module, "tree")
            for backend in ("decoded", "superblock"):
                assert _fault(module, backend) == tree


class _HookedRecorder(Interpreter):
    """Instrumented interpreter for the hooked parity matrix."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.count_loads = True
        self.entries = []

    def on_block_entry(self, frame, prev, block):
        self.entries.append((prev.name if prev else None, block.name))


def _hooked_fault(module, backend, exc=RuntimeFault, **kwargs):
    interp = _HookedRecorder(module, backend=backend, **kwargs)
    with pytest.raises(exc) as excinfo:
        interp.run()
    return (
        str(excinfo.value),
        list(interp.output),
        interp.load_count,
        interp.entries,
    )


class TestHookedFaultParity:
    """The hooked tiers fault exactly like the walker, instrumentation
    included: message, partial output, loads counted so far and the
    ``on_block_entry`` sequence up to the fault must all match."""

    @pytest.mark.parametrize(
        "body,decls",
        [
            ("print(a[7]);", "int a[4];"),
            ("a[0 - 1] = 1;", "int a[4];"),
            ("int z = 0; print(1 / z);", ""),
            ("int s = 64; print(1 << s);", ""),
        ],
    )
    def test_hooked_fault_matrix(self, body, decls):
        module = compile_source(f"{decls}\nvoid main() {{ {body} }}")
        tree = _hooked_fault(module, "tree")
        assert _hooked_fault(module, "decoded") == tree
        assert _hooked_fault(module, "superblock") == tree

    def test_hooked_fault_mid_superblock_after_partial_output(self):
        module = compile_source(
            """
            int a[4];
            void main() {
                int i;
                for (i = 0; i < 3; i++) { print(a[i]); }
                print(a[9]);
            }
            """
        )
        tree = _hooked_fault(module, "tree")
        assert tree[1] == ["0", "0", "0"]
        # Three in-bounds loads plus the faulting attempt are counted.
        assert tree[2] == 4
        assert _hooked_fault(module, "decoded") == tree
        assert _hooked_fault(module, "superblock") == tree

    @settings(max_examples=15, deadline=None)
    @given(limit=st.integers(min_value=1, max_value=400))
    def test_hooked_limit_fires_at_identical_instruction(self, limit):
        tree = _hooked_fault(
            _loop_module, "tree", exc=ExecutionLimitExceeded,
            max_instructions=limit,
        )
        for backend in ("decoded", "superblock"):
            assert _hooked_fault(
                _loop_module, backend, exc=ExecutionLimitExceeded,
                max_instructions=limit,
            ) == tree


# ------------------------------------------------------------- limit parity


def _run_limited(module, backend, limit):
    interp = Interpreter(module, max_instructions=limit, backend=backend)
    with pytest.raises(ExecutionLimitExceeded) as excinfo:
        interp.run()
    return str(excinfo.value), list(interp.output), interp.instructions


class TestLimitParity:
    @settings(max_examples=40, deadline=None)
    @given(limit=st.integers(min_value=1, max_value=600))
    def test_limit_fires_at_identical_instruction(self, limit):
        tree = _run_limited(_loop_module, "tree", limit)
        for backend in ("decoded", "superblock"):
            assert _run_limited(_loop_module, backend, limit) == tree

    @settings(max_examples=15, deadline=None)
    @given(limit=st.integers(min_value=1, max_value=400))
    def test_limit_parity_across_calls(self, limit):
        module = compile_source(
            """
            int f(int n) { print(n); return n * 2; }
            void main() {
                int i;
                for (i = 0; i < 100; i++) { f(i); }
            }
            """
        )
        tree = _run_limited(module, "tree", limit)
        for backend in ("decoded", "superblock"):
            assert _run_limited(module, backend, limit) == tree

    def test_exact_budget_completes_on_all_backends(self):
        module = compile_source(
            """
            void main() {
                int i;
                int total = 0;
                for (i = 0; i < 50; i++) { total = total + i; }
                print(total);
            }
            """
        )
        reference = run_module(module, backend="tree")
        limit = reference.instructions
        for backend in BACKENDS:
            run = run_module(module, backend=backend, max_instructions=limit)
            assert run.to_dict() == reference.to_dict()


# ------------------------------------------------------ version-keyed caches


class TestVersionKeyedCaches:
    """Compiled-code caches key on ``Function.version``: mutating the IR
    and bumping the version must recompile, never replay stale code."""

    SRC = "void main() { int x = 3; print(x + 4); }"

    @staticmethod
    def _mutate_const(module, value):
        func = module.functions["main"]
        block = next(iter(func.blocks.values()))
        mov = block.instructions[0]
        assert mov.opcode is Opcode.MOV
        mov.args = (Const(value, Type.INT),)
        func.bump_version()
        return func

    def test_superblock_tier_recompiles_after_bump(self):
        module = compile_source(self.SRC)
        interp = Interpreter(module, backend="superblock")
        assert interp.run().output == ["7"]
        old_version = module.functions["main"].version
        func = self._mutate_const(module, 10)
        assert interp.run().output == ["14"]
        assert ("main", old_version) in interp._superblocks
        assert ("main", func.version) in interp._superblocks

    def test_hooked_superblock_tier_recompiles_after_bump(self):
        module = compile_source(self.SRC)
        interp = Interpreter(module)
        interp.count_loads = True
        assert interp.run().output == ["7"]
        old_version = module.functions["main"].version
        func = self._mutate_const(module, 10)
        assert interp.run().output == ["14"]
        generations = {key[:2] for key in interp._hooked_superblocks}
        assert {("main", old_version), ("main", func.version)} <= generations

    def test_decoded_tier_recompiles_after_bump(self):
        module = compile_source(self.SRC)
        interp = Interpreter(module, backend="decoded")
        assert interp.run().output == ["7"]
        old_version = module.functions["main"].version
        func = self._mutate_const(module, 10)
        assert interp.run().output == ["14"]
        generations = {key[:2] for key in interp._decoded}
        assert {("main", old_version), ("main", func.version)} <= generations


# -------------------------------------------------------- backend selection


class TestBackendSelection:
    def test_superblock_backend_is_pinnable(self):
        interp = Interpreter(_loop_module, backend="superblock")
        assert interp._backend_mode() == _BACKEND_SUPER

    def test_hooks_select_hooked_superblock_tier(self):
        interp = Interpreter(_loop_module, backend="superblock")
        interp.on_block_entry = lambda frame, prev, block: None
        assert interp._backend_mode() == _BACKEND_HOOKED_SUPER

    def test_superblock_backend_rejects_core_overrides(self):
        class Tracing(Interpreter):
            def eval_operand(self, operand, frame):
                return super().eval_operand(operand, frame)

        with pytest.raises(ValueError, match="eval_operand"):
            Tracing(_loop_module, backend="superblock")


# ------------------------------------------------------- hooked equivalence


class TestHookedEquivalence:
    SRC = """
    int a[16];
    void main() {
        int i;
        int total = 0;
        for (i = 0; i < 16; i++) { a[i] = i; }
        for (i = 0; i < 16; i++) { total = total + a[i]; }
        print(total);
    }
    """

    def test_count_loads_matches_tree(self):
        module = compile_source(self.SRC)

        def loads(backend):
            interp = Interpreter(module, backend=backend)
            interp.count_loads = True
            result = interp.run()
            return interp.load_count, result.to_dict()

        assert loads("auto") == loads("tree")

    def test_on_block_entry_sequence_matches_tree(self):
        module = compile_source(self.SRC)

        class Entries(Interpreter):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.entries = []

            def on_block_entry(self, frame, prev, block):
                self.entries.append(
                    (prev.name if prev else None, block.name)
                )

        auto = Entries(module)
        assert auto._backend_mode() == _BACKEND_HOOKED_SUPER
        tree = Entries(module, backend="tree")
        assert auto.run().to_dict() == tree.run().to_dict()
        assert auto.entries == tree.entries


# ------------------------------------------------------------ probe sites


_CHARGE_RE = re.compile(r"__i\.instructions (?:=|\+=) ")


def _source(module, hooked, probes=None, count_blocks=False):
    interp = Interpreter(module)
    interp.count_loads = True
    interp.count_blocks = count_blocks
    if probes is not None:
        interp.probe_sites = {"main": frozenset(probes)}
    return compile_superblocks(
        interp, module.functions["main"], hooked=hooked, count_loads=True
    ).source


class TestProbeSites:
    # The loop body falls through into the step block: a fused BR.
    SRC = """
    int a[8];
    void main() {
        int i;
        int t = 0;
        for (i = 0; i < 8; i++) {
            t = t + i;
            a[i] = t;
        }
        print(t);
    }
    """

    def test_empty_probe_set_emits_no_hook(self):
        module = compile_source(self.SRC)
        for count_blocks in (False, True):
            source = _source(module, True, (), count_blocks)
            assert "__obe" not in source

    def test_empty_probe_set_closes_no_extra_segments(self):
        module = compile_source(self.SRC)
        plain = len(_CHARGE_RE.findall(_source(module, False)))
        every = len(_CHARGE_RE.findall(_source(module, True)))
        assert every > plain  # the every-block shape closes at each one
        for count_blocks in (False, True):
            sparse = _source(module, True, (), count_blocks)
            assert len(_CHARGE_RE.findall(sparse)) <= plain

    def test_hook_calls_only_target_probe_sites(self):
        module = compile_source(self.SRC)
        func = module.functions["main"]
        header = next(n for n in func.blocks if n.startswith("for"))
        source = _source(module, True, {header})
        calls = re.findall(r"__obe\(frame, (__bb\d+), (__bb\d+)\)", source)
        assert calls
        interp = Interpreter(module)
        interp.probe_sites = {"main": frozenset({header})}
        sfunc = compile_superblocks(interp, func, hooked=True)
        namespace = sfunc.run.__globals__
        assert {namespace[target].name for _prev, target in calls} == {header}

    def test_probe_sites_key_the_artifact(self):
        from repro.runtime.codegen import artifact_key

        module = compile_source(self.SRC)
        func = module.functions["main"]
        keys = set()
        for probes, count_blocks in ((None, False), ((), False), ((), True)):
            interp = Interpreter(module)
            interp.count_blocks = count_blocks
            if probes is not None:
                interp.probe_sites = {"main": frozenset(probes)}
            keys.add(artifact_key(interp, func, True, False))
        assert len(keys) == 3


# ------------------------------------------------------------------ counters


def _delta(run):
    before = REGISTRY.snapshot()
    run()
    return metrics_delta(before, REGISTRY.snapshot())["counters"]


class TestCounters:
    def test_superblock_run_bumps_formation_counters(self):
        module = compile_source(self.FUSION_SRC)
        counters = _delta(lambda: run_module(module, backend="superblock"))
        assert counters["interp.backend.superblock"] == 1
        assert counters["interp.superblock.formed"] >= 1
        assert counters["interp.codegen.functions"] >= 1
        assert counters.get("interp.superblock.blocks_fused", 0) >= 1
        assert counters.get("interp.codegen.specialized_ops", 0) >= 1

    FUSION_SRC = """
    int a[4];
    void main() {
        int i;
        for (i = 0; i < 4; i++) { a[i] = i * 3; }
        int *p = &a[1];
        print(p[2]);
    }
    """

    def test_compilation_happens_once_per_interpreter(self):
        module = compile_source(self.FUSION_SRC)
        interp = Interpreter(module, backend="superblock")
        first = _delta(interp.run)
        again = _delta(interp.run)
        assert first["interp.codegen.functions"] >= 1
        assert "interp.codegen.functions" not in again

    def test_budget_expiry_counts_a_fallback(self):
        counters = _delta(
            lambda: pytest.raises(
                ExecutionLimitExceeded,
                run_module,
                _loop_module,
                backend="superblock",
                max_instructions=123,
            )
        )
        assert counters.get("interp.superblock.fallbacks", 0) >= 1

    def test_unlimited_run_needs_no_fallback(self):
        module = compile_source(self.FUSION_SRC)
        counters = _delta(lambda: run_module(module, backend="superblock"))
        assert counters.get("interp.superblock.fallbacks", 0) == 0
