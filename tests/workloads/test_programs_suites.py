"""Tests for the random program generator and the suite specifications."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.liveness import max_live
from repro.analysis.loops import natural_loops
from repro.analysis.ssa_construction import construct_ssa
from repro.ir.printer import print_function
from repro.check import static_errors
from repro.workloads.programs import GeneratorProfile, generate_function, generate_module
from repro.workloads.suites import SPECJVM98, SUITES, SuiteSpec, get_suite


# ---------------------------------------------------------------------- #
# program generator
# ---------------------------------------------------------------------- #
def test_generated_function_is_valid_ir():
    fn = generate_function("demo", rng=7)
    assert static_errors(fn) == []
    assert fn.num_instructions() > 10
    assert len(fn) >= 1


def test_generation_is_deterministic_per_seed():
    a = generate_function("demo", rng=123)
    b = generate_function("demo", rng=123)
    assert print_function(a) == print_function(b)


def test_different_seeds_give_different_programs():
    a = generate_function("demo", rng=1)
    b = generate_function("demo", rng=2)
    assert print_function(a) != print_function(b)


def test_accumulators_drive_register_pressure():
    low = generate_function("low", GeneratorProfile(statements=30, accumulators=2, loop_depth=1), rng=5)
    high = generate_function("high", GeneratorProfile(statements=30, accumulators=24, loop_depth=1), rng=5)
    assert max_live(construct_ssa(high)) > max_live(construct_ssa(low))
    assert max_live(construct_ssa(high)) >= 24


def test_loop_depth_zero_generates_no_loops():
    profile = GeneratorProfile(statements=30, accumulators=3, loop_depth=0, branch_probability=0.3)
    fn = generate_function("noloop", profile, rng=3)
    assert natural_loops(fn) == []


def test_loops_generated_when_allowed():
    profile = GeneratorProfile(statements=60, accumulators=3, loop_depth=2, loop_probability=0.6)
    fn = generate_function("loopy", profile, rng=3)
    assert len(natural_loops(fn)) >= 1


def test_statement_budget_bounds_size():
    small = generate_function("small", GeneratorProfile(statements=10, accumulators=2), rng=11)
    large = generate_function("large", GeneratorProfile(statements=200, accumulators=2), rng=11)
    assert large.num_instructions() > small.num_instructions()


def test_generate_module_contains_requested_functions():
    module = generate_module("bench", 4, GeneratorProfile(statements=15, accumulators=2), rng=9)
    assert len(module) == 4
    assert module.function_names() == [f"bench_fn{i}" for i in range(4)]


def test_generate_function_accepts_random_instance():
    fn = generate_function("demo", rng=random.Random(3))
    assert static_errors(fn) == []


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_generated_functions_always_verify_and_convert_to_ssa(seed):
    profile = GeneratorProfile(statements=20, accumulators=4, loop_depth=2)
    fn = generate_function("prop", profile, rng=seed)
    assert static_errors(fn) == []
    ssa = construct_ssa(fn)
    assert static_errors(ssa, ssa=True) == []


# ---------------------------------------------------------------------- #
# suites
# ---------------------------------------------------------------------- #
def test_all_four_paper_suites_exist():
    assert set(SUITES) == {"spec2000int", "eembc", "lao_kernels", "specjvm98"}


def test_suite_lookup_is_flexible():
    assert get_suite("EEMBC").name == "eembc"
    assert get_suite("lao-kernels").name == "lao_kernels"
    with pytest.raises(KeyError):
        get_suite("spec2017")


def test_chordal_flags_match_paper_setup():
    assert get_suite("spec2000int").chordal
    assert get_suite("eembc").chordal
    assert get_suite("lao_kernels").chordal
    assert not get_suite("specjvm98").chordal


def test_specjvm98_has_the_nine_paper_benchmarks():
    expected = {"check", "compress", "jess", "raytrace", "db", "javac", "mpegaudio", "mtrt", "jack"}
    assert set(SPECJVM98.program_names()) == expected


def test_suites_reference_valid_targets():
    from repro.targets import get_target

    for suite in SUITES.values():
        assert get_target(suite.default_target) is not None


def test_suite_spec_is_well_formed():
    for suite in SUITES.values():
        assert isinstance(suite, SuiteSpec)
        assert suite.programs
        for name, (count, profile) in suite.programs.items():
            assert count >= 1
            assert profile.statements > 0
            assert profile.accumulators >= 0
