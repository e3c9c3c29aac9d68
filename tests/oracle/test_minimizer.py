"""Tests for the delta-debugging minimizer."""

import pytest

from repro.ir.instructions import Opcode
from repro.check import static_errors
from repro.oracle.generator import generate_program
from repro.oracle.minimizer import minimization_summary, minimize


def contains_mul(function) -> bool:
    return any(i.opcode is Opcode.MUL for i in function.instructions())


def test_minimizer_result_still_fails_and_is_valid():
    # Synthetic predicate: "the program contains a mul".  The minimizer must
    # return a valid program that still satisfies it — by construction it
    # never trades the failure away.
    function = generate_program(0, 1, "small")
    assert contains_mul(function)
    minimized = minimize(function, contains_mul)
    assert contains_mul(minimized)
    assert static_errors(minimized) == []
    assert minimized.num_instructions() < function.num_instructions()


def test_minimizer_shrinks_synthetic_predicate_to_a_handful():
    function = generate_program(0, 5, "small")
    assert contains_mul(function)
    minimized = minimize(function, contains_mul)
    # One mul + the structural minimum (a terminator per reachable block).
    assert minimized.num_instructions() <= 5
    summary = minimization_summary(function, minimized)
    assert "->" in summary


def test_minimizer_rejects_passing_input():
    function = generate_program(0, 3, "small")
    with pytest.raises(ValueError, match="needs a failing input"):
        minimize(function, lambda f: False)


def test_minimizer_collapses_branches():
    # The predicate only cares about the div in one diamond arm: the other
    # arm and ideally the branch itself should disappear.
    from repro.ir.parser import parse_function

    function = parse_function(
        """
func @diamond(%p) {
entry:
  %c = cmp %p, 3
  cbr %c, left, right
left:
  %a = div %p, 2
  br join
right:
  %b = mul %p, 5
  br join
join:
  %r = add %p, 1
  ret %r
}
"""
    )
    has_div = lambda f: any(i.opcode is Opcode.DIV for i in f.instructions())
    minimized = minimize(function, has_div)
    assert has_div(minimized)
    assert len(minimized) < len(function)
    assert not any(i.opcode is Opcode.MUL for i in minimized.instructions())


def test_minimizer_intermediate_candidates_all_verified():
    # The predicate records every candidate it sees; each must be legal IR
    # (the minimizer promises to never hand the pipeline structural garbage).
    seen = []

    def predicate(function) -> bool:
        seen.append(function)
        return contains_mul(function)

    function = generate_program(1, 0, "small")
    assert contains_mul(function)
    minimize(function, predicate)
    for candidate in seen:
        assert static_errors(candidate) == []
