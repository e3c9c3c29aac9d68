"""Tests for the oracle's seeded program generator."""

import pytest

from repro.ir.interpreter import interpret
from repro.ir.printer import print_function
from repro.check import static_errors
from repro.oracle.generator import (
    SIZE_PROFILES,
    generate_program,
    iter_programs,
    program_rng,
)


def test_same_seed_and_index_is_byte_identical():
    # Determinism is what lets campaign workers regenerate their shard and
    # lets a failure report be replayed from (seed, index) alone.
    for index in range(5):
        first = print_function(generate_program(42, index, "small"))
        second = print_function(generate_program(42, index, "small"))
        assert first == second


def test_different_indices_differ():
    programs = {print_function(f) for f in iter_programs(7, 8, "small")}
    assert len(programs) == 8


def test_different_seeds_differ():
    assert print_function(generate_program(1, 0)) != print_function(generate_program(2, 0))


def test_program_rng_is_stable_across_instances():
    assert program_rng(3, 4).random() == program_rng(3, 4).random()


@pytest.mark.parametrize("size", sorted(SIZE_PROFILES))
def test_every_size_generates_valid_ir(size):
    function = generate_program(0, 0, size)
    assert static_errors(function) == []


def test_unknown_size_raises():
    with pytest.raises(ValueError, match="unknown oracle program size"):
        generate_program(0, 0, "jumbo")


def test_generated_programs_terminate():
    # Protected loop counters + small trip counts: every oracle program must
    # finish well within the differential budget, on varied inputs.
    for index in range(10):
        function = generate_program(13, index, "small")
        for arguments in ((0, 0, 0, 0), (9, 7, 255, 1)):
            result = interpret(function, arguments, max_steps=20_000)
            assert result.terminated, f"program {index} exhausted its budget"


def test_generated_programs_exercise_memory_and_control_flow():
    from repro.ir.instructions import Opcode

    opcodes = set()
    blocks = 0
    for function in iter_programs(0, 10, "small"):
        blocks = max(blocks, len(function))
        for instruction in function.instructions():
            opcodes.add(instruction.opcode)
    assert Opcode.LOAD in opcodes and Opcode.STORE in opcodes
    assert Opcode.CBR in opcodes
    assert Opcode.CALL in opcodes
    assert blocks > 3, "expected diamonds/loops, not straight-line code"


def test_memory_traffic_stays_below_spill_slots():
    from repro.alloc.spill_code import SPILL_SLOT_BASE
    from repro.ir.instructions import Opcode
    from repro.ir.values import Constant

    for function in iter_programs(5, 5, "small"):
        for instruction in function.instructions():
            if instruction.opcode in (Opcode.LOAD, Opcode.STORE):
                address = instruction.uses[0]
                if isinstance(address, Constant):
                    assert address.value < SPILL_SLOT_BASE


def test_constrained_profile_emits_byte_identical_programs():
    # constrain_fraction is declarative only: it consumes no RNG and must
    # not perturb the emitted instruction stream, so historical corpora and
    # their store digests survive the knob's existence.
    from repro.oracle.generator import constrained_profile, program_rng
    from repro.workloads.programs import generate_function

    base = SIZE_PROFILES["small"]
    constrained = constrained_profile("small", 0.5)
    assert constrained.constrain_fraction == 0.5
    assert base.constrain_fraction == 0.0
    for index in range(3):
        plain = print_function(
            generate_function("f", base, rng=program_rng(9, index))
        )
        knobbed = print_function(
            generate_function("f", constrained, rng=program_rng(9, index))
        )
        assert plain == knobbed


def test_constrained_profile_unknown_size_raises():
    from repro.oracle.generator import constrained_profile

    with pytest.raises(ValueError, match="unknown oracle program size"):
        constrained_profile("jumbo", 0.5)
