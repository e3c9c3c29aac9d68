"""Golden-diagnostic suite: one minimal crafted reproducer per error code.

Every stable code the machine-verifier can emit gets a smallest-known input
that triggers exactly it, and the test pins the code, the location and the
rendered message (text and JSON) so diagnostics cannot drift silently.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.alloc.problem import AllocationProblem
from repro.alloc.result import AllocationResult
from repro.analysis.liveness import liveness
from repro.check import (
    allocation_diagnostics,
    assignment_diagnostics,
    cfg_diagnostics,
    interference_diagnostics,
    liveness_diagnostics,
    opcode_diagnostics,
    spill_diagnostics,
    ssa_diagnostics,
)
from repro.graphs.graph import Graph
from repro.ir.function import Function
from repro.ir.instructions import make_branch
from repro.ir.parser import parse_function
from repro.ir.values import Constant, VirtualRegister
from repro.targets import get_target


def one(diagnostics, code):
    """The single diagnostic carrying ``code`` (asserting it exists once)."""
    matching = [d for d in diagnostics if d.code == code]
    assert len(matching) == 1, f"expected exactly one {code}, got {diagnostics}"
    return matching[0]


# ---------------------------------------------------------------------- #
# CFG001–CFG007
# ---------------------------------------------------------------------- #
def test_cfg001_no_blocks():
    diag = one(cfg_diagnostics(Function("empty", [])), "CFG001")
    assert diag.location.function == "empty"
    assert diag.render() == (
        "error[CFG001] @empty: function 'empty' has no blocks; "
        "hint: add an entry block with a terminator"
    )
    assert diag.to_dict()["location"] == {"function": "empty"}


def test_cfg002_missing_terminator():
    fn = parse_function("func @f() {\nentry:\n  %x = add 1, 2\n}")
    diag = one(cfg_diagnostics(fn), "CFG002")
    assert diag.location.block == "entry"
    assert diag.message == "block 'entry' of 'f' does not end with a terminator"
    assert diag.to_dict()["severity"] == "error"


def test_cfg003_mid_block_terminator():
    # The block builder refuses to append past a terminator, so splice one in
    # the way a buggy rewriter would: by editing the instruction list.
    fn = parse_function(
        "func @f() {\nentry:\n  %x = add 1, 2\n  br exit\nexit:\n  ret\n}"
    )
    fn.entry.instructions.insert(1, fn.blocks["exit"].instructions[0])
    diag = one(cfg_diagnostics(fn), "CFG003")
    assert diag.message == "block 'entry' of 'f' has a terminator in the middle"
    assert (diag.location.block, diag.location.instr) == ("entry", 1)


def test_cfg004_unknown_branch_target():
    # Built by hand: the parser itself rejects an unknown label, but IR
    # constructed or edited in memory still reaches the checker.
    fn = Function("f")
    fn.add_block("entry").append(make_branch("nowhere"))
    diag = one(cfg_diagnostics(fn), "CFG004")
    assert diag.message == "block 'entry' branches to unknown block 'nowhere'"
    assert diag.location.operand == "nowhere"


def test_cfg005_unreachable_block_is_a_note():
    fn = parse_function("func @f() {\nentry:\n  ret\ndead:\n  ret\n}")
    diag = one(cfg_diagnostics(fn), "CFG005")
    assert not diag.is_error
    assert diag.message == "block 'dead' is unreachable from the entry"
    assert diag.to_dict()["severity"] == "note"


def test_cfg006_critical_edge_is_a_note():
    fn = parse_function(
        "func @f(%c) {\nentry:\n  cbr %c, a, join\na:\n  br join\njoin:\n  ret\n}"
    )
    diag = one(cfg_diagnostics(fn), "CFG006")
    assert not diag.is_error
    assert diag.message == (
        "critical edge 'entry' -> 'join' (multi-successor source, multi-predecessor target)"
    )


def test_cfg007_phi_arity_vs_predecessors():
    fn = parse_function(
        "func @f(%c) {\nentry:\n  br join\njoin:\n  %m = phi [%c, nonpred]\n  ret %m\n}"
    )
    diag = one(cfg_diagnostics(fn), "CFG007")
    assert diag.message == (
        "phi %m in block 'join' has incoming edges ['nonpred'] "
        "but the block's predecessors are ['entry']"
    )
    assert diag.location.operand == "%m"


# ---------------------------------------------------------------------- #
# SSA001–SSA005
# ---------------------------------------------------------------------- #
def test_ssa001_multiple_definitions():
    fn = parse_function(
        "func @f(%c) {\nentry:\n  %x = add %c, 1\n  %x = add %x, 1\n  ret %x\n}"
    )
    diag = one(ssa_diagnostics(fn, require_ssa=True), "SSA001")
    assert diag.message == (
        "function 'f' is not in SSA form: multiple definitions of ['%x']"
    )
    assert diag.location.operand == "%x"


def test_ssa002_use_without_definition():
    fn = parse_function("func @f(%a) {\nentry:\n  %x = add %a, %ghost\n  ret %x\n}")
    diag = one(ssa_diagnostics(fn), "SSA002")
    assert diag.message == "register %ghost used in block 'entry' of 'f' but never defined"
    assert (diag.location.block, diag.location.operand) == ("entry", "%ghost")


def test_ssa003_cross_block_dominance_violation():
    fn = parse_function(
        "func @f(%c) {\nentry:\n  cbr %c, then, fin\nthen:\n  %x = add %c, 1\n"
        "  br fin\nfin:\n  ret %x\n}"
    )
    diag = one(ssa_diagnostics(fn, require_ssa=True), "SSA003")
    assert diag.message == (
        "use of %x in block 'fin' is not dominated by its definition in block 'then'"
    )
    assert diag.render().startswith("error[SSA003] @f/fin")


def test_ssa004_phi_operand_not_dominating_its_edge():
    fn = parse_function(
        "func @f(%c) {\nentry:\n  cbr %c, left, right\nleft:\n  %x = add %c, 1\n"
        "  br join\nright:\n  br join\njoin:\n  %m = phi [%x, left], [%x, right]\n  ret %m\n}"
    )
    diag = one(ssa_diagnostics(fn, require_ssa=True), "SSA004")
    assert diag.message == (
        "phi operand %x (from 'right') not dominated by its definition in function 'f'"
    )
    assert diag.location.block == "join"


def test_ssa005_same_block_use_before_def():
    fn = parse_function(
        "func @f(%c) {\nentry:\n  %y = add %x, 1\n  %x = add %c, 1\n  ret %y\n}"
    )
    diag = one(ssa_diagnostics(fn, require_ssa=True), "SSA005")
    assert diag.message == "register %x used before its definition in block 'entry'"
    assert diag.location.instr == 0


def test_ssa_checks_bail_on_structurally_broken_cfg():
    fn = parse_function("func @f() {\nentry:\n  %x = add %ghost, 1\n}")
    # CFG002 makes dominator computation unsafe; the SSA family stays silent
    # and leaves the finding to the CFG checker.
    assert ssa_diagnostics(fn, require_ssa=True) == []


# ---------------------------------------------------------------------- #
# OP001–OP005 (require post-construction mutation: the builders enforce
# arity, the verifier re-checks because rewriters edit in place)
# ---------------------------------------------------------------------- #
def _first_instruction(fn):
    return fn.entry.instructions[0]


def test_op001_operand_arity():
    fn = parse_function("func @f(%a) {\nentry:\n  %x = add %a, %a\n  ret %x\n}")
    _first_instruction(fn).uses.append(Constant(1))
    diag = one(opcode_diagnostics(fn), "OP001")
    assert diag.message == "add expects 2 operand(s) but has 3"
    assert (diag.location.block, diag.location.instr) == ("entry", 0)


def test_op002_def_arity():
    fn = parse_function("func @f(%a) {\nentry:\n  %x = add %a, %a\n  ret %x\n}")
    _first_instruction(fn).defs.append(VirtualRegister("extra"))
    diag = one(opcode_diagnostics(fn), "OP002")
    assert diag.message == "add expects 1 result(s) but defines 2"


def test_op003_branch_target_arity():
    fn = parse_function("func @f() {\nentry:\n  br exit\nexit:\n  ret\n}")
    _first_instruction(fn).targets.append("exit")
    diag = one(opcode_diagnostics(fn), "OP003")
    assert diag.message == "br expects 1 branch target(s) but has 2"


def test_op004_phi_without_incoming():
    fn = parse_function(
        "func @f(%c) {\nentry:\n  br join\njoin:\n  %m = phi [%c, entry]\n  ret %m\n}"
    )
    phi = fn.phi_nodes()[0]
    phi.incoming.clear()
    phi.uses.clear()
    diag = one(opcode_diagnostics(fn), "OP004")
    assert diag.message == "phi %m has no incoming values"


def test_op005_non_value_operand():
    fn = parse_function("func @f(%a) {\nentry:\n  %x = add %a, %a\n  ret %x\n}")
    _first_instruction(fn).uses[1] = "not-a-value"
    diag = one(opcode_diagnostics(fn), "OP005")
    assert diag.message == (
        "add operand 'not-a-value' is not an IR value (register or constant)"
    )
    assert diag.location.operand == "'not-a-value'"


# ---------------------------------------------------------------------- #
# LIV001–LIV003
# ---------------------------------------------------------------------- #
def test_liv001_transfer_equation_violation(diamond_function):
    info = liveness(diamond_function)
    label = diamond_function.entry_label
    info.live_out[label].add(VirtualRegister("zz"))
    diag = one(liveness_diagnostics(diamond_function, info), "LIV001")
    assert f"live-out of block {label!r} violates the transfer equation" in diag.message
    assert "extra: ['%zz']" in diag.message
    assert diag.location.block == label


def test_liv002_missing_block_entry(diamond_function):
    info = liveness(diamond_function)
    label = diamond_function.entry_label
    del info.live_in[label]
    diags = liveness_diagnostics(diamond_function, info)
    # The hole also makes the stored sets disagree with the reference run, so
    # pick out the missing-entry finding specifically.
    diag = one([d for d in diags if "has no entry" in d.message], "LIV002")
    assert diag.message == f"liveness info has no entry for block {label!r}"
    assert diag.location.block == label


def test_liv003_max_live_exceeds_registers_is_a_note():
    fn = parse_function(
        "func @f(%a, %b) {\nentry:\n  %x = add %a, %b\n  %y = mul %a, %b\n"
        "  %z = add %x, %y\n  ret %z\n}"
    )
    info = liveness(fn)
    diag = one(liveness_diagnostics(fn, info, num_registers=1), "LIV003")
    assert not diag.is_error
    assert "exceeds the declared register count R=1" in diag.message


# ---------------------------------------------------------------------- #
# IGR001–IGR004
# ---------------------------------------------------------------------- #
def test_igr001_asymmetric_adjacency():
    g = Graph()
    g.add_vertex("a")
    g.add_vertex("b")
    g._adj["a"].add("b")  # bypass add_edge: only one direction
    diag = one(interference_diagnostics(g), "IGR001")
    assert diag.message == "asymmetric adjacency: 'a' lists 'b' but not the reverse"
    assert diag.location.operand == "a"


def test_igr002_self_loop():
    g = Graph()
    g.add_vertex("a")
    g._adj["a"].add("a")  # the public API rejects self-loops
    diags = interference_diagnostics(g)
    diag = one([d for d in diags if d.code == "IGR002"], "IGR002")
    assert diag.message == "self-loop on interference vertex 'a'"


def test_igr003_ssa_graph_not_chordal_is_a_warning():
    g = Graph()
    for u, v in [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")]:
        g.add_edge(u, v)  # C4: the smallest non-chordal graph
    diag = one(interference_diagnostics(g, expect_chordal=True), "IGR003")
    assert not diag.is_error
    assert diag.message == "interference graph of an SSA-form program is not chordal"
    assert interference_diagnostics(g, expect_chordal=False) == []


def test_igr004_negative_weight_is_a_warning():
    g = Graph()
    g.add_vertex("a")
    g._weights["a"] = -2.0  # add_vertex rejects negative weights up front
    diag = one(interference_diagnostics(g), "IGR004")
    assert not diag.is_error
    assert diag.message == "vertex 'a' has negative spill cost -2.0"


# ---------------------------------------------------------------------- #
# ALLOC001–ALLOC008
# ---------------------------------------------------------------------- #
def _path_problem(registers=1):
    g = Graph()
    g.add_edge("a", "b")
    g.add_edge("b", "c")
    return AllocationProblem(graph=g, num_registers=registers, name="golden")


def _result(allocated, spilled, cost, registers=1):
    return AllocationResult(
        allocator="golden",
        num_registers=registers,
        allocated=frozenset(allocated),
        spilled=frozenset(spilled),
        spill_cost=cost,
    )


def test_alloc001_partition_does_not_cover():
    problem = _path_problem()
    diags = allocation_diagnostics(problem, _result({"a"}, set(), 0.0))
    diag = one(diags, "ALLOC001")
    assert diag.message == "allocated ∪ spilled does not cover all variables"


def test_alloc002_sets_overlap():
    problem = _path_problem()
    diags = allocation_diagnostics(problem, _result({"a", "b", "c"}, {"a"}, 1.0))
    assert one(diags, "ALLOC002").message == "allocated and spilled sets overlap"


def test_alloc003_spill_cost_mismatch():
    problem = _path_problem()
    diags = allocation_diagnostics(problem, _result({"a", "b"}, {"c"}, 99.0, registers=2))
    diag = one(diags, "ALLOC003")
    assert diag.message == "spill cost mismatch: result says 99.0, recomputed 1.0"


def test_alloc004_provably_infeasible_allocation():
    problem = _path_problem(registers=1)
    diags = allocation_diagnostics(problem, _result({"a", "b"}, {"c"}, 1.0))
    diag = one(diags, "ALLOC004")
    assert diag.message.startswith("infeasible allocation from golden:")
    # Non-strict mode keeps the bookkeeping checks but drops the verdict.
    assert allocation_diagnostics(problem, _result({"a", "b"}, {"c"}, 1.0), strict=False) == []


def test_alloc005_allocated_variable_missing_from_assignment():
    problem = _path_problem(registers=2)
    result = _result({"a", "b"}, {"c"}, 1.0, registers=2)
    diag = one(assignment_diagnostics(problem, result, {"a": "R0"}), "ALLOC005")
    assert diag.message == "allocated variables missing from the register assignment: ['b']"


def test_alloc006_spilled_variable_holds_a_register():
    problem = _path_problem(registers=2)
    result = _result({"a", "b"}, {"c"}, 1.0, registers=2)
    assignment = {"a": "R0", "b": "R1", "c": "R0"}
    diag = one(assignment_diagnostics(problem, result, assignment), "ALLOC006")
    assert diag.message == "spilled variables must not hold a register, but got one: ['c']"


def test_alloc007_interfering_variables_share_a_register():
    problem = _path_problem(registers=2)
    result = _result({"a", "b"}, {"c"}, 1.0, registers=2)
    diag = one(assignment_diagnostics(problem, result, {"a": "R0", "b": "R0"}), "ALLOC007")
    assert diag.message == "interfering variables a and b share register 'R0'"
    assert diag.location.operand == "a, b"


#: prints the first ALLOC007 message for 4 interfering pairs all on r0.
_ALLOC007_FIRST = """
from repro.alloc.problem import AllocationProblem
from repro.alloc.result import AllocationResult
from repro.check.allocation import assignment_diagnostics
from repro.graphs.graph import Graph
from repro.ir.values import VirtualRegister

graph = Graph()
registers = [VirtualRegister(f"v{i}") for i in range(8)]
for u, v in zip(registers[::2], registers[1::2]):
    graph.add_edge(u, v)
result = AllocationResult(
    allocator="golden", num_registers=1, allocated=frozenset(registers),
    spilled=frozenset(), spill_cost=0.0,
)
problem = AllocationProblem(graph=graph, num_registers=1)
print(assignment_diagnostics(problem, result, {r: "r0" for r in registers})[0].message)
"""


def test_alloc007_first_message_does_not_depend_on_the_hash_seed():
    # VirtualRegister hashes by name, so set iteration order follows
    # PYTHONHASHSEED; the verify stage raises the first ALLOC007 message.
    src = str(Path(repro.__file__).resolve().parents[1])
    messages = set()
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        process = subprocess.run(
            [sys.executable, "-c", _ALLOC007_FIRST],
            capture_output=True, text=True, env=env, timeout=120, check=False,
        )
        assert process.returncode == 0, process.stderr
        messages.add(process.stdout.strip())
    assert messages == {"interfering variables %v0 and %v1 share register 'r0'"}


def test_alloc008_register_budget_exceeded():
    problem = _path_problem(registers=1)
    result = _result({"a", "c"}, {"b"}, 1.0)  # a and c do not interfere
    diag = one(assignment_diagnostics(problem, result, {"a": "R0", "c": "R1"}), "ALLOC008")
    assert diag.message == "assignment uses 2 distinct registers for R=1"


def test_alloc008_register_name_outside_target_file():
    problem = _path_problem(registers=1)
    result = _result({"a", "c"}, {"b"}, 1.0)
    target = get_target("st231")
    assignment = {"a": "bogus", "c": "bogus"}
    diags = assignment_diagnostics(problem, result, assignment, target=target)
    diag = one(diags, "ALLOC008")
    assert diag.message == (
        "assignment uses register(s) ['bogus'] outside target 'st231''s "
        "file of 1 allocatable registers"
    )


# ---------------------------------------------------------------------- #
# SPL001–SPL004
# ---------------------------------------------------------------------- #
def test_spl001_spilled_use_without_reload():
    fn = parse_function("func @f(%a) {\nentry:\n  %x = add %a, %s\n  ret %x\n}")
    diag = one(spill_diagnostics(fn, {"s"}), "SPL001")
    assert diag.message == (
        "use of spilled register %s in block 'entry' is not reached by a "
        "reload or an earlier same-block definition"
    )
    assert diag.location.operand == "%s"


def test_spl002_spilled_def_without_store():
    fn = parse_function("func @f(%a) {\nentry:\n  %s = add %a, %a\n  ret %s\n}")
    diag = one(spill_diagnostics(fn, {"s"}), "SPL002")
    assert diag.message == (
        "definition of spilled register %s in block 'entry' is not followed "
        "by a store to its spill slot"
    )


def test_spl003_reload_from_unfilled_slot():
    fn = parse_function(
        "func @f(%a) {\nentry:\n  %s = add %a, %a\n  store 1000, %s\n"
        "  %s.reload1 = load 1001\n  ret %s.reload1\n}"
    )
    diag = one(spill_diagnostics(fn, {"s"}), "SPL003")
    assert diag.message == "reload %s.reload1 loads from slot 1001 which no store ever fills"


def test_spl004_spilled_phi_operand_is_a_note():
    fn = parse_function(
        "func @f(%a) {\nentry:\n  %s = add %a, %a\n  store 1000, %s\n  br join\n"
        "join:\n  %p = phi [%s, entry]\n  ret %p\n}"
    )
    diags = spill_diagnostics(fn, {"s"})
    diag = one([d for d in diags if d.code == "SPL004"], "SPL004")
    assert not diag.is_error
    assert diag.message == (
        "phi operand %s (from 'entry') is a spilled register kept live along "
        "the edge (spill-everywhere does not reload phi operands)"
    )


def test_spill_audit_accepts_real_spill_code():
    from repro.pipeline import Pipeline

    fn = parse_function(
        "func @f(%a, %b) {\nentry:\n  %x = add %a, %b\n  %y = mul %a, %b\n"
        "  %z = add %x, %y\n  %w = add %z, %a\n  ret %w\n}"
    )
    context = Pipeline.from_spec("NL", target="st231", registers=2).run(fn)
    assert context.result.num_spilled > 0, "R=2 must force spilling here"
    spilled = {str(v).lstrip("%") for v in context.result.spilled}
    errors = [d for d in spill_diagnostics(context.rewritten, spilled) if d.is_error]
    assert errors == []


# ---------------------------------------------------------------------- #
# TGT001–TGT004 (machine-model / register-file structure)
# ---------------------------------------------------------------------- #
def _constrained_problem():
    from repro.alloc.constraints import ProblemConstraints

    graph = Graph()
    graph.add_edge("a", "b")
    constraints = ProblemConstraints(
        registers=("x5", "x6"),
        classes=(("gpr", ("x5", "x6")),),
        var_class=(("a", "nope"),),
        pre_colored=(("b", "x6"),),
        aliases=(("x5", "x6"),),
    )
    return AllocationProblem(graph=graph, num_registers=2, constraints=constraints)


def test_tgt001_unknown_register_class():
    from repro.check import target_diagnostics

    diag = one(target_diagnostics(_constrained_problem(), function_name="f"), "TGT001")
    assert diag.location.operand == "a"
    assert diag.render() == (
        "error[TGT001] @f (a): variable a is constrained to unknown register "
        "class 'nope'; hint: declared classes: ['gpr']"
    )


def test_tgt002_interfering_variables_on_aliasing_registers():
    from repro.check import target_diagnostics

    diags = target_diagnostics(
        _constrained_problem(),
        assignment={"a": "x6", "b": "x5"},
        function_name="f",
    )
    diag = one(diags, "TGT002")
    assert diag.render() == (
        "error[TGT002] @f (a, b): interfering variables a and b hold aliasing "
        "registers 'x6' and 'x5'; hint: aliasing registers overlap in hardware"
    )


def test_tgt003_pre_coloring_violated():
    from repro.check import target_diagnostics

    diags = target_diagnostics(
        _constrained_problem(), assignment={"b": "x5"}, function_name="f"
    )
    diag = one(diags, "TGT003")
    assert diag.render() == (
        "error[TGT003] @f (b): variable b is pre-colored to 'x6' but was "
        "assigned 'x5'; hint: pre-colored variables must keep their register "
        "or spill"
    )


def test_tgt004_reserved_register_used():
    # TGT004 guards every run — no ProblemConstraints needed, only a target.
    from repro.check import target_diagnostics

    graph = Graph()
    graph.add_edge("a", "b")
    problem = AllocationProblem(graph=graph, num_registers=2)
    diags = target_diagnostics(
        problem,
        assignment={"a": "x2", "b": "x5"},
        target=get_target("riscv"),
        function_name="f",
    )
    diag = one(diags, "TGT004")
    assert diag.render() == (
        "error[TGT004] @f (x2): assignment uses reserved register(s) ['x2'] of "
        "target 'riscv'; hint: allocate from TargetMachine.allocatable() only"
    )


def test_tgt_clean_assignment_has_no_findings():
    from repro.check import target_diagnostics

    problem = _constrained_problem()
    # a is unknown-class, so only check b: pre-color honored, no aliasing
    # conflict (a spilled), no reserved use.
    diags = target_diagnostics(
        problem, assignment={"b": "x6"}, target=get_target("riscv"), function_name="f"
    )
    assert [d.code for d in diags] == ["TGT001"]
