"""A small SSA-capable intermediate representation.

The paper evaluates its allocators on interference graphs extracted from real
compilers (Open64, JikesRVM).  This subpackage provides the stand-in compiler
substrate: a compact three-address IR with basic blocks, virtual registers,
φ-functions and explicit terminators, plus a textual syntax for tests and
examples.

The IR intentionally stays small — just enough structure for the analyses in
:mod:`repro.analysis` (dominators, liveness, SSA construction) to produce
realistic interference graphs with frequency-based spill costs.
"""

from repro.ir.values import Constant, Value, VirtualRegister
from repro.ir.instructions import (
    Instruction,
    Opcode,
    Phi,
    TERMINATOR_OPCODES,
    make_binary,
    make_branch,
    make_call,
    make_cond_branch,
    make_copy,
    make_load,
    make_return,
    make_store,
    make_unary,
)
from repro.ir.basic_block import BasicBlock
from repro.ir.function import Function
from repro.ir.module import Module
from repro.ir.builder import FunctionBuilder
from repro.ir.interpreter import ExecutionResult, Interpreter, interpret
from repro.ir.printer import print_function, print_module
from repro.ir.parser import parse_function, parse_module

__all__ = [
    "Value",
    "VirtualRegister",
    "Constant",
    "Instruction",
    "Phi",
    "Opcode",
    "TERMINATOR_OPCODES",
    "make_binary",
    "make_unary",
    "make_copy",
    "make_load",
    "make_store",
    "make_call",
    "make_branch",
    "make_cond_branch",
    "make_return",
    "BasicBlock",
    "Function",
    "Module",
    "FunctionBuilder",
    "Interpreter",
    "ExecutionResult",
    "interpret",
    "print_function",
    "print_module",
    "parse_function",
    "parse_module",
]
