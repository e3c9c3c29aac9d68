"""Tests for aggressive copy coalescing (non-SSA JIT pipeline)."""

from repro.analysis.ssa_construction import construct_ssa
from repro.analysis.ssa_destruction import coalesce_copies, destruct_ssa
from repro.ir.instructions import Opcode
from repro.ir.interpreter import interpret
from repro.ir.parser import parse_function
from repro.ir.printer import print_function
from repro.check import static_errors


COPY_CHAIN = """
func @chain(%p) {
entry:
  %a = copy %p
  %b = copy %a
  %c = add %b, 1
  %d = copy %c
  ret %d
}
"""


def test_copy_chain_collapses_to_webs():
    fn = parse_function(COPY_CHAIN)
    coalesced = coalesce_copies(fn)
    assert static_errors(coalesced) == []
    names = {reg.name for reg in coalesced.virtual_registers()}
    webs = {name for name in names if name.endswith(".cw")}
    assert webs, "copy-related registers must be merged into .cw webs"
    # p, a, b merge into one web; c, d into another.
    assert len(webs) <= 2


def test_coalesce_copies_preserves_semantics():
    fn = parse_function(COPY_CHAIN)
    coalesced = coalesce_copies(fn)
    for value in (0, 5, 41):
        assert interpret(coalesced, [value]).return_value == interpret(fn, [value]).return_value


def test_coalesce_copies_does_not_mutate_input():
    fn = parse_function(COPY_CHAIN)
    before = print_function(fn)
    coalesce_copies(fn)
    assert print_function(fn) == before


def test_coalesce_copies_ignores_constant_copies():
    fn = parse_function(
        """
func @const_copy(%p) {
entry:
  %a = copy 7
  %b = add %a, %p
  ret %b
}
"""
    )
    coalesced = coalesce_copies(fn)
    assert static_errors(coalesced) == []
    assert interpret(coalesced, [3]).return_value == 10


def test_full_non_ssa_pipeline_preserves_semantics(loop_function):
    ssa = construct_ssa(loop_function)
    lowered = destruct_ssa(ssa, coalesce_phi_webs=True)
    coalesced = coalesce_copies(lowered)
    assert static_errors(coalesced) == []
    for n in (0, 3, 6):
        assert interpret(coalesced, [n]).return_value == interpret(loop_function, [n]).return_value


def test_coalescing_reduces_copy_related_names(loop_function):
    ssa = construct_ssa(loop_function)
    lowered = destruct_ssa(ssa, coalesce_phi_webs=False)
    coalesced = coalesce_copies(lowered)
    copies_before = sum(1 for i in lowered.instructions() if i.opcode is Opcode.COPY)
    assert copies_before > 0
    names_before = {reg.name for reg in lowered.virtual_registers()}
    names_after = {reg.name for reg in coalesced.virtual_registers()}
    assert len(names_after) <= len(names_before)


def test_interfering_webs_are_not_merged():
    # Two variables copied from the same source, one updated afterwards: the
    # unconditional union used to merge all three (caught by the
    # differential oracle — see tests/oracle/regressions/), silently turning
    # the untouched copy into the updated one.
    fn = parse_function(
        """
func @siblings(%p) {
entry:
  %keep = copy %p
  %bump = copy %p
  %bump = add %bump, 5
  %r = add %keep, %bump
  ret %r
}
"""
    )
    coalesced = coalesce_copies(fn)
    assert static_errors(coalesced) == []
    for value in (0, 3, 10):
        assert interpret(coalesced, [value]).return_value == interpret(fn, [value]).return_value


def test_loop_carried_web_does_not_swallow_initial_value():
    # %acc0 must keep p's original value while %acc1 accumulates in a loop.
    fn = parse_function(
        """
func @loopweb(%p) {
entry:
  %acc0 = copy %p
  %acc1 = copy %p
  %i = copy 3
  br loop
loop:
  %c = cmp %i, 0
  cbr %c, body, exit
body:
  %acc1 = add %acc1, %i
  %i = sub %i, 1
  br loop
exit:
  %r = add %acc0, %acc1
  ret %r
}
"""
    )
    lowered = coalesce_copies(destruct_ssa(construct_ssa(fn)))
    assert static_errors(lowered) == []
    for value in (0, 4, 11):
        assert interpret(lowered, [value]).return_value == interpret(fn, [value]).return_value


def test_distinct_webs_with_same_base_name_stay_distinct():
    # Interference can split copy-related SSA versions of one source name
    # into several webs; the renamer must not fuse them by accident.
    fn = parse_function(
        """
func @samebase(%p) {
entry:
  %v = copy %p
  %a = copy %v
  %v = add %a, 1
  %b = copy %v
  %r = add %a, %b
  ret %r
}
"""
    )
    coalesced = coalesce_copies(fn)
    assert static_errors(coalesced) == []
    for value in (0, 2, 9):
        assert interpret(coalesced, [value]).return_value == interpret(fn, [value]).return_value
