"""Tests for the intra-block load/store optimization of spill code."""

from repro.alloc.load_store_opt import insert_optimized_spill_code, remove_redundant_reloads
from repro.alloc.spill_code import insert_spill_code
from repro.analysis.ssa_construction import construct_ssa
from repro.ir.instructions import Opcode
from repro.ir.interpreter import interpret
from repro.ir.parser import parse_function
from repro.check import static_errors
from repro.workloads.programs import GeneratorProfile, generate_function


def count_loads(function):
    return sum(1 for instr in function.instructions() if instr.opcode is Opcode.LOAD)


def test_back_to_back_uses_share_one_reload():
    # %v is defined in the entry block but used twice in a later block: the
    # later block needs one reload, not two.
    fn = parse_function(
        """
func @twice(%p) {
entry:
  %v = add %p, 1
  br use
use:
  %a = add %v, %v
  %b = mul %v, 2
  %c = add %a, %b
  ret %c
}
"""
    )
    naive, naive_stats = insert_spill_code(fn, ["v"])
    optimized, stats = insert_optimized_spill_code(fn, ["v"])
    assert static_errors(optimized) == []
    assert naive_stats["loads"] == 2
    assert stats.loads_before == 2
    assert stats.loads_after == 1
    assert stats.loads_saved == 1
    assert count_loads(optimized) < count_loads(naive)


def test_store_makes_value_available_to_later_uses_in_block():
    fn = parse_function(
        """
func @samedef(%p) {
entry:
  %v = add %p, 1
  %use = add %v, 3
  ret %use
}
"""
    )
    optimized, stats = insert_optimized_spill_code(fn, ["v"])
    # The store right after the definition keeps %v available, so the reload
    # before the use in the same block is removed entirely.
    assert stats.loads_after == 0
    assert stats.stores == 1


def test_reloads_in_different_blocks_are_kept():
    fn = parse_function(
        """
func @crossblock(%p) {
entry:
  %v = add %p, 1
  %c = cmp %v, 0
  cbr %c, one, two
one:
  %a = add %v, 1
  ret %a
two:
  %b = add %v, 2
  ret %b
}
"""
    )
    optimized, stats = insert_optimized_spill_code(fn, ["v"])
    assert static_errors(optimized) == []
    # The definition block needs no reload (store keeps it available), but
    # each successor block still reloads once: the optimization is local.
    assert stats.loads_after == 2


def test_semantics_preserved_by_optimization(loop_function):
    ssa = construct_ssa(loop_function)
    spilled = [reg.name for reg in ssa.virtual_registers()][:4]
    naive, _ = insert_spill_code(ssa, spilled)
    optimized, _ = insert_optimized_spill_code(ssa, spilled)
    for n in (0, 3, 7):
        expected = interpret(ssa, [n]).return_value
        assert interpret(naive, [n]).return_value == expected
        assert interpret(optimized, [n]).return_value == expected


def test_optimization_never_increases_loads_on_generated_programs():
    profile = GeneratorProfile(statements=25, accumulators=6, loop_depth=2)
    for seed in range(4):
        fn = generate_function("lso", profile, rng=seed)
        ssa = construct_ssa(fn)
        spilled = [reg.name for reg in ssa.virtual_registers()][::3]
        naive, naive_stats = insert_spill_code(ssa, spilled)
        optimized, stats = insert_optimized_spill_code(ssa, spilled)
        assert static_errors(optimized) == []
        assert stats.loads_after <= stats.loads_before
        assert stats.loads_before == naive_stats["loads"]
        assert count_loads(optimized) == stats.loads_after


def test_remove_redundant_reloads_is_identity_without_spill_code(diamond_function):
    ssa = construct_ssa(diamond_function)
    optimized, removed = remove_redundant_reloads(ssa)
    assert removed == 0
    assert optimized.num_instructions() == ssa.num_instructions()


def test_dynamic_overhead_drops_after_optimization(loop_function):
    from repro.analysis.profile import measure_spill_overhead
    from repro.ir.interpreter import interpret as run

    ssa = construct_ssa(loop_function)
    spilled = ["sum.1", "i.1"]
    naive, _ = insert_spill_code(ssa, spilled)
    optimized, stats = insert_optimized_spill_code(ssa, spilled)
    arguments = [20]
    naive_run = run(naive, arguments)
    optimized_run = run(optimized, arguments)
    assert optimized_run.return_value == naive_run.return_value
    assert optimized_run.memory_operations <= naive_run.memory_operations
    assert stats.loads_saved >= 0
    # Keep the measured-overhead API exercised end to end.
    overhead = measure_spill_overhead(ssa, spilled, argument_sets=[arguments])
    assert overhead.extra_memory_operations >= 0


# ---------------------------------------------------------------------- #
# availability-tracking soundness (bugs caught by the differential oracle;
# minimized pipeline-level reproducers live in tests/oracle/regressions/)
# ---------------------------------------------------------------------- #
def _semantics_preserved(text, arguments_sets=((0,), (3,), (9,))):
    fn = parse_function(text)
    optimized, removed = remove_redundant_reloads(fn)
    assert static_errors(optimized) == []
    for arguments in arguments_sets:
        assert (
            interpret(optimized, arguments).return_value
            == interpret(fn, arguments).return_value
        )
    return removed


def test_reload_into_redefined_destination_is_not_forwarded():
    # The destination of the first tracked load is redefined by a second
    # load before the would-be-redundant reload: forwarding %x would read
    # slot 6's value instead of slot 5's.
    removed = _semantics_preserved(
        """
func @doubleload(%p) {
entry:
  store 5, 111
  store 6, 222
  %x = load 5
  %x = load 6
  %y = load 5
  ret %y
}
"""
    )
    assert removed == 0


def test_store_through_register_address_invalidates_availability():
    # `store %a, 999` may alias slot 5 at runtime (it does for %p == 5), so
    # the later reload must stay.
    removed = _semantics_preserved(
        """
func @aliasstore(%p) {
entry:
  store 5, 111
  %x = load 5
  %a = add %p, 0
  store %a, 999
  %y = load 5
  ret %y
}
""",
        arguments_sets=((0,), (5,), (6,)),
    )
    assert removed == 0


def test_holder_redefinition_between_reload_and_use_blocks_removal():
    # %v holds slot 1000's value at the reload, but is redefined before the
    # reload's result is used: rewriting %y to %v would read the new value.
    removed = _semantics_preserved(
        """
func @holderredef(%p) {
entry:
  %v = add %p, 7
  store 1000, %v
  %y = load 1000
  %v = add %v, 1
  %z = add %y, 0
  ret %z
}
"""
    )
    assert removed == 0


def test_stable_holder_still_forwards():
    # The safety conditions must not kill the legitimate case: single-def
    # destination, same-block use, holder untouched.
    fn = parse_function(
        """
func @stable(%p) {
entry:
  %v = add %p, 7
  store 1000, %v
  %y = load 1000
  %z = add %y, 0
  ret %z
}
"""
    )
    optimized, removed = remove_redundant_reloads(fn)
    assert static_errors(optimized) == []
    assert removed == 1
    assert interpret(optimized, [3]).return_value == interpret(fn, [3]).return_value


def test_phi_used_reload_is_never_removed():
    # A reload whose destination feeds a φ is used on a CFG edge: removal
    # would leak availability across the block boundary.
    fn = parse_function(
        """
func @phifeed(%p) {
entry:
  %v = add %p, 1
  store 1000, %v
  %r = load 1000
  %c = cmp %p, 0
  cbr %c, left, join
left:
  %w = add %v, 10
  br join
join:
  %m = phi [%r, entry], [%w, left]
  ret %m
}
"""
    )
    optimized, removed = remove_redundant_reloads(fn)
    assert static_errors(optimized) == []
    assert removed == 0
    for n in (0, 5):
        assert interpret(optimized, [n]).return_value == interpret(fn, [n]).return_value


def test_dead_reload_is_dropped():
    fn = parse_function(
        """
func @dead(%p) {
entry:
  %v = add %p, 1
  store 1000, %v
  %unused = load 1000
  ret %v
}
"""
    )
    optimized, removed = remove_redundant_reloads(fn)
    assert static_errors(optimized) == []
    assert removed == 1
    assert count_loads(optimized) == 0
