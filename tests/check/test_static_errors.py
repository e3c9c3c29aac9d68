"""``static_errors`` as a gate: the builder's ``finish`` and clean-IR cases."""

import pytest

from repro.analysis.ssa_construction import construct_ssa
from repro.check import static_errors
from repro.errors import VerificationError
from repro.ir.builder import FunctionBuilder
from repro.ir.parser import parse_function


def test_builder_finish_raises_the_first_static_error():
    fb = FunctionBuilder("f")
    fb.set_block(fb.new_block("entry"))
    fb.add("x", "ghost", 1)
    fb.ret("x")
    with pytest.raises(VerificationError, match="ghost"):
        fb.finish()


def test_builder_finish_ignores_note_findings():
    # An unreachable block is a CFG005 note, not an error.
    fb = FunctionBuilder("f")
    fb.set_block(fb.new_block("entry"))
    fb.ret()
    fb.set_block(fb.new_block("dead"))
    fb.ret()
    assert fb.finish().block_labels() == ["entry", "dead"]


def test_constructed_ssa_passes_the_ssa_checks(diamond_function, loop_function):
    for fn in (diamond_function, loop_function):
        assert static_errors(construct_ssa(fn), ssa=True) == []


def test_phi_operand_dominates_its_incoming_edge():
    # %x is defined in 'left' and flows into the phi from 'left': valid SSA.
    fn = parse_function(
        """
func @phi_ok(%p) {
entry:
  %c = cmp %p, 0
  cbr %c, left, right
left:
  %x = add %p, 1
  br join
right:
  %z = add %p, 2
  br join
join:
  %m = phi [%x, left], [%z, right]
  ret %m
}
"""
    )
    assert static_errors(fn, ssa=True) == []
