"""Tests for SSA construction and destruction."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.cfg import ControlFlowGraph
from repro.analysis.ssa_construction import construct_ssa
from repro.analysis.ssa_destruction import destruct_ssa, split_critical_edges
from repro.errors import IRError
from repro.ir.parser import parse_function
from repro.ir.printer import print_function
from repro.check import static_errors
from repro.workloads.programs import GeneratorProfile, generate_function


# ---------------------------------------------------------------------- #
# construction
# ---------------------------------------------------------------------- #
def test_construct_ssa_diamond_places_one_phi(diamond_function):
    ssa = construct_ssa(diamond_function)
    assert static_errors(ssa, ssa=True) == []
    phis = ssa.phi_nodes()
    assert len(phis) == 1
    assert phis[0].target.name.startswith("x.")
    assert set(phis[0].incoming) == {"then", "else"}


def test_construct_ssa_loop_places_phis_at_header(loop_function):
    ssa = construct_ssa(loop_function)
    assert static_errors(ssa, ssa=True) == []
    header_phis = ssa.block("header").phis
    phi_bases = {phi.target.name.split(".")[0] for phi in header_phis}
    assert {"i", "sum", "prod"} <= phi_bases


def test_construct_ssa_does_not_mutate_input(diamond_function):
    before = print_function(diamond_function)
    construct_ssa(diamond_function)
    assert print_function(diamond_function) == before


def test_construct_ssa_straight_line_needs_no_phi():
    fn = parse_function(
        """
func @straight(%a) {
entry:
  %x = add %a, 1
  %x2 = add %x, 2
  ret %x2
}
"""
    )
    ssa = construct_ssa(fn)
    assert ssa.phi_nodes() == []
    assert static_errors(ssa, ssa=True) == []


def test_construct_ssa_renames_reused_names():
    fn = parse_function(
        """
func @reuse(%a) {
entry:
  %x = add %a, 1
  %x = add %x, 2
  %x = add %x, 3
  ret %x
}
"""
    )
    ssa = construct_ssa(fn)
    assert static_errors(ssa, ssa=True) == []
    names = {reg.name for reg in ssa.virtual_registers()}
    assert {"x.0", "x.1", "x.2"} <= names


def test_construct_ssa_rejects_existing_phis(diamond_function):
    ssa = construct_ssa(diamond_function)
    with pytest.raises(IRError):
        construct_ssa(ssa)


def test_construct_ssa_parameters_get_version_zero(diamond_function):
    ssa = construct_ssa(diamond_function)
    assert {param.name for param in ssa.parameters} == {"a.0", "b.0"}


def test_construct_ssa_partial_definition_gets_undef_operand():
    # 'x' is defined only on the 'then' path but used after the join.  The
    # use is reachable only when the branch is taken in the original,
    # non-strict program; the SSA form must still be valid, with a patched
    # undef value on the other edge.
    fn = parse_function(
        """
func @partial(%p) {
entry:
  %c = cmp %p, 0
  cbr %c, then, join
then:
  %x = add %p, 1
  br join
join:
  %y = add %p, 2
  ret %y
}
"""
    )
    ssa = construct_ssa(fn)
    assert static_errors(ssa, ssa=True) == []


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_construct_ssa_on_random_programs_is_valid_ssa(seed):
    profile = GeneratorProfile(statements=25, accumulators=4, loop_depth=2)
    fn = generate_function("random", profile, rng=seed)
    ssa = construct_ssa(fn)
    assert static_errors(ssa, ssa=True) == []


# ---------------------------------------------------------------------- #
# critical edge splitting and destruction
# ---------------------------------------------------------------------- #
def test_split_critical_edges_inserts_forwarding_blocks():
    fn = parse_function(
        """
func @critical(%p) {
entry:
  %c = cmp %p, 0
  cbr %c, left, merge
left:
  %x = add %p, 1
  cbr %x, merge, out
merge:
  %m = add %p, 2
  ret %m
out:
  ret %p
}
"""
    )
    # entry->merge is critical: entry has 2 successors, merge has 2 predecessors.
    split = split_critical_edges(fn)
    assert static_errors(split) == []
    assert len(split) > len(fn)
    cfg = ControlFlowGraph(split)
    for src, dst in cfg.edges():
        critical = len(cfg.successors[src]) > 1 and len(cfg.predecessors[dst]) > 1
        assert not critical


def test_destruct_ssa_with_copies_removes_phis(diamond_function):
    ssa = construct_ssa(diamond_function)
    lowered = destruct_ssa(ssa, coalesce_phi_webs=False)
    assert static_errors(lowered) == []
    assert lowered.phi_nodes() == []
    # Copies implementing the phi appear in the predecessors of the join.
    copy_count = sum(
        1
        for block in lowered
        for instr in block.instructions
        if instr.opcode.value == "copy"
    )
    assert copy_count >= 2


def test_destruct_ssa_with_coalescing_merges_webs(diamond_function):
    ssa = construct_ssa(diamond_function)
    lowered = destruct_ssa(ssa, coalesce_phi_webs=True)
    assert static_errors(lowered) == []
    assert lowered.phi_nodes() == []
    names = {reg.name for reg in lowered.virtual_registers()}
    web_names = {name for name in names if name.endswith(".web")}
    assert web_names, "phi-web coalescing should introduce shared .web names"


def test_destruct_then_construct_roundtrip_is_valid(loop_function):
    ssa = construct_ssa(loop_function)
    lowered = destruct_ssa(ssa, coalesce_phi_webs=True)
    again = construct_ssa(lowered)
    assert static_errors(again, ssa=True) == []


def test_destruct_ssa_does_not_mutate_input(loop_function):
    ssa = construct_ssa(loop_function)
    before = print_function(ssa)
    destruct_ssa(ssa)
    assert print_function(ssa) == before
