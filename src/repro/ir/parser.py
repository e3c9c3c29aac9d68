"""Parser for the textual IR syntax emitted by :mod:`repro.ir.printer`.

The grammar is line-oriented:

* ``func @name(%p0, %p1) {`` opens a function;
* ``label:`` opens a basic block;
* instruction lines: ``%d = add %a, %b``, ``store %p, %v``, ``br exit``,
  ``cbr %c, then, else``, ``ret %x``,
  ``%d = phi [%a, entry], [%b, loop]``;
* ``}`` closes the function.

Branch targets must name a block of the same function; an unknown label is
a :class:`~repro.errors.ParseError` naming it.

Lines starting with ``#`` or ``;`` and blank lines are ignored.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from repro.errors import ParseError
from repro.ir.function import Function
from repro.ir.instructions import (
    BINARY_OPCODES,
    Instruction,
    Opcode,
    Phi,
    UNARY_OPCODES,
    make_binary,
    make_branch,
    make_call,
    make_cond_branch,
    make_load,
    make_return,
    make_store,
    make_unary,
)
from repro.ir.module import Module
from repro.ir.values import Constant, Value, VirtualRegister

_FUNC_RE = re.compile(r"^func\s+@([A-Za-z_][\w.$]*)\s*\(([^)]*)\)\s*\{$")
_LABEL_RE = re.compile(r"^([A-Za-z_][\w.$]*):$")
_PHI_ARG_RE = re.compile(r"\[\s*([^,\]]+)\s*,\s*([A-Za-z_][\w.$]*)\s*\]")


def _parse_value(token: str, line: int) -> Value:
    """Parse a single operand token: register or numeric constant."""
    token = token.strip()
    if token.startswith("%"):
        name = token[1:]
        if not name:
            raise ParseError("empty register name", line)
        return VirtualRegister(name)
    try:
        if "." in token or "e" in token.lower():
            return Constant(float(token))
        return Constant(int(token))
    except ValueError:
        raise ParseError(f"cannot parse operand {token!r}", line) from None


def _parse_register(token: str, line: int) -> VirtualRegister:
    """Parse a token that must be a register."""
    value = _parse_value(token, line)
    if not isinstance(value, VirtualRegister):
        raise ParseError(f"expected a register, got {token!r}", line)
    return value


def _split_operands(text: str) -> List[str]:
    """Split a comma-separated operand list, ignoring empties."""
    return [part.strip() for part in text.split(",") if part.strip()]


def _parse_instruction(text: str, line: int) -> Instruction:
    """Parse one instruction line (without leading whitespace)."""
    # Terminators and stores first: they have no destination.
    if text.startswith("br "):
        target = text[3:].strip()
        return make_branch(target)
    if text.startswith("cbr "):
        parts = _split_operands(text[4:])
        if len(parts) != 3:
            raise ParseError("cbr expects: cbr %cond, true_label, false_label", line)
        return make_cond_branch(_parse_value(parts[0], line), parts[1], parts[2])
    if text == "ret":
        return make_return()
    if text.startswith("ret "):
        return make_return(_parse_value(text[4:], line))
    if text.startswith("store "):
        parts = _split_operands(text[6:])
        if len(parts) != 2:
            raise ParseError("store expects: store %address, %value", line)
        return make_store(_parse_value(parts[0], line), _parse_value(parts[1], line))
    if text.startswith("call "):
        args = _split_operands(text[5:])
        return make_call(None, [_parse_value(a, line) for a in args])

    # Everything else is "dest = opcode operands".
    if "=" not in text:
        raise ParseError(f"cannot parse instruction {text!r}", line)
    dest_text, rhs = text.split("=", 1)
    dest = _parse_register(dest_text.strip(), line)
    rhs = rhs.strip()
    opcode_name, _, operand_text = rhs.partition(" ")
    operand_text = operand_text.strip()

    if opcode_name == "phi":
        incoming = {}
        for match in _PHI_ARG_RE.finditer(operand_text):
            value_text, label = match.group(1), match.group(2)
            incoming[label] = _parse_value(value_text, line)
        if not incoming:
            raise ParseError("phi needs at least one [value, label] pair", line)
        return Phi(dest, incoming)
    if opcode_name == "call":
        args = _split_operands(operand_text)
        return make_call(dest, [_parse_value(a, line) for a in args])
    if opcode_name == "load":
        return make_load(dest, _parse_value(operand_text, line))

    try:
        opcode = Opcode(opcode_name)
    except ValueError:
        raise ParseError(f"unknown opcode {opcode_name!r}", line) from None

    operands = [_parse_value(tok, line) for tok in _split_operands(operand_text)]
    if opcode in BINARY_OPCODES:
        if len(operands) != 2:
            raise ParseError(f"{opcode_name} expects two operands", line)
        return make_binary(opcode, dest, operands[0], operands[1])
    if opcode in UNARY_OPCODES:
        if len(operands) != 1:
            raise ParseError(f"{opcode_name} expects one operand", line)
        return make_unary(opcode, dest, operands[0])
    raise ParseError(f"opcode {opcode_name!r} cannot appear with a destination", line)


def _iter_meaningful_lines(text: str) -> List[Tuple[int, str]]:
    """Yield (line_number, stripped_text) for non-blank, non-comment lines."""
    result = []
    for number, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#") or stripped.startswith(";"):
            continue
        result.append((number, stripped))
    return result


def parse_module(text: str, name: str = "module") -> Module:
    """Parse a module containing any number of functions."""
    module = Module(name)
    lines = _iter_meaningful_lines(text)
    index = 0
    while index < len(lines):
        line_number, line_text = lines[index]
        match = _FUNC_RE.match(line_text)
        if not match:
            raise ParseError(f"expected 'func @name(...) {{', got {line_text!r}", line_number)
        function, index = _parse_function_body(lines, index, match)
        module.add_function(function)
    return module


def _located(error: ParseError, function: str, block: Optional[str]) -> ParseError:
    """Rebuild ``error`` with the enclosing function/block location attached."""
    if error.function is not None:
        return error
    return ParseError(error.raw_message, error.line, function=function, block=block)


def _parse_function_body(
    lines: List[Tuple[int, str]], index: int, header: "re.Match[str]"
) -> Tuple[Function, int]:
    """Parse one function starting at ``lines[index]`` (the header line)."""
    line_number, _ = lines[index]
    name = header.group(1)
    param_text = header.group(2).strip()
    try:
        params = [_parse_register(p, line_number) for p in _split_operands(param_text)] if param_text else []
    except ParseError as error:
        raise _located(error, name, None) from None
    function = Function(name, params)
    index += 1
    current_label: Optional[str] = None
    #: (line, block, target) of every branch, resolved once all labels are known.
    branches: List[Tuple[int, str, str]] = []
    while index < len(lines):
        line_number, line_text = lines[index]
        if line_text == "}":
            labels = set(function.block_labels())
            for line, block, target in branches:
                if target not in labels:
                    raise ParseError(
                        f"branch to unknown label {target!r}", line, function=name, block=block
                    )
            return function, index + 1
        label_match = _LABEL_RE.match(line_text)
        if label_match:
            current_label = label_match.group(1)
            function.add_block(current_label)
            index += 1
            continue
        if current_label is None:
            raise ParseError(
                "instruction outside of any block", line_number, function=name
            )
        try:
            instruction = _parse_instruction(line_text, line_number)
        except ParseError as error:
            raise _located(error, name, current_label) from None
        function.block(current_label).append(instruction)
        branches.extend((line_number, current_label, target) for target in instruction.targets)
        index += 1
    raise ParseError(
        f"unterminated function {name!r} (missing '}}')",
        line_number,
        function=name,
        block=current_label,
    )


def parse_function(text: str) -> Function:
    """Parse a single function and return it."""
    module = parse_module(text)
    if len(module) != 1:
        raise ParseError(f"expected exactly one function, found {len(module)}")
    return next(iter(module))
