"""A convenience builder for constructing functions programmatically.

The random program generator (:mod:`repro.workloads.programs`), the examples
and many tests build IR through this class instead of wiring
:class:`~repro.ir.instructions.Instruction` objects by hand.
"""

from __future__ import annotations

from typing import Iterable, Optional, Union

from repro.errors import IRError, VerificationError
from repro.ir.basic_block import BasicBlock
from repro.ir.function import Function
from repro.ir.instructions import (
    Opcode,
    Phi,
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
from repro.ir.values import Constant, Value, VirtualRegister

Operand = Union[Value, str, int, float]


def _as_value(operand: Operand) -> Value:
    """Coerce strings to registers and numbers to constants."""
    if isinstance(operand, Value):
        return operand
    if isinstance(operand, str):
        return VirtualRegister(operand)
    if isinstance(operand, (int, float)):
        return Constant(operand)
    raise IRError(f"cannot convert {operand!r} to an IR value")


def _as_register(operand: Union[VirtualRegister, str]) -> VirtualRegister:
    """Coerce a name to a register, rejecting constants."""
    if isinstance(operand, VirtualRegister):
        return operand
    if isinstance(operand, str):
        return VirtualRegister(operand)
    raise IRError(f"{operand!r} is not a virtual register")


class FunctionBuilder:
    """Incrementally build a :class:`Function`.

    Example
    -------
    >>> fb = FunctionBuilder("f", params=["a", "b"])
    >>> entry = fb.new_block("entry")
    >>> fb.set_block(entry)
    >>> _ = fb.add("x", "a", "b")
    >>> _ = fb.ret("x")
    >>> fn = fb.finish()
    >>> fn.num_instructions()
    2
    """

    def __init__(self, name: str, params: Iterable[Union[str, VirtualRegister]] = ()) -> None:
        self.function = Function(name, [_as_register(p) for p in params])
        self._current: Optional[BasicBlock] = None

    # ------------------------------------------------------------------ #
    # blocks
    # ------------------------------------------------------------------ #
    def new_block(self, label: str) -> BasicBlock:
        """Create a block; does not change the insertion point."""
        return self.function.add_block(label)

    def set_block(self, block: Union[BasicBlock, str]) -> BasicBlock:
        """Move the insertion point to ``block``."""
        if isinstance(block, str):
            block = self.function.block(block)
        self._current = block
        return block

    @property
    def current_block(self) -> BasicBlock:
        """The current insertion point."""
        if self._current is None:
            raise IRError("no current block: call set_block() first")
        return self._current

    # ------------------------------------------------------------------ #
    # instructions
    # ------------------------------------------------------------------ #
    def _emit_binary(self, opcode: Opcode, dest: Operand, lhs: Operand, rhs: Operand) -> VirtualRegister:
        reg = _as_register(dest)  # type: ignore[arg-type]
        self.current_block.append(make_binary(opcode, reg, _as_value(lhs), _as_value(rhs)))
        return reg

    def add(self, dest: Operand, lhs: Operand, rhs: Operand) -> VirtualRegister:
        """Emit ``dest = add lhs, rhs``."""
        return self._emit_binary(Opcode.ADD, dest, lhs, rhs)

    def sub(self, dest: Operand, lhs: Operand, rhs: Operand) -> VirtualRegister:
        """Emit ``dest = sub lhs, rhs``."""
        return self._emit_binary(Opcode.SUB, dest, lhs, rhs)

    def mul(self, dest: Operand, lhs: Operand, rhs: Operand) -> VirtualRegister:
        """Emit ``dest = mul lhs, rhs``."""
        return self._emit_binary(Opcode.MUL, dest, lhs, rhs)

    def div(self, dest: Operand, lhs: Operand, rhs: Operand) -> VirtualRegister:
        """Emit ``dest = div lhs, rhs``."""
        return self._emit_binary(Opcode.DIV, dest, lhs, rhs)

    def cmp(self, dest: Operand, lhs: Operand, rhs: Operand) -> VirtualRegister:
        """Emit ``dest = cmp lhs, rhs``."""
        return self._emit_binary(Opcode.CMP, dest, lhs, rhs)

    def binary(self, opcode: Opcode, dest: Operand, lhs: Operand, rhs: Operand) -> VirtualRegister:
        """Emit an arbitrary binary operation."""
        return self._emit_binary(opcode, dest, lhs, rhs)

    def copy(self, dest: Operand, source: Operand) -> VirtualRegister:
        """Emit ``dest = copy source``."""
        reg = _as_register(dest)  # type: ignore[arg-type]
        self.current_block.append(make_copy(reg, _as_value(source)))
        return reg

    def neg(self, dest: Operand, source: Operand) -> VirtualRegister:
        """Emit ``dest = neg source``."""
        reg = _as_register(dest)  # type: ignore[arg-type]
        self.current_block.append(make_unary(Opcode.NEG, reg, _as_value(source)))
        return reg

    def load(self, dest: Operand, address: Operand) -> VirtualRegister:
        """Emit ``dest = load address``."""
        reg = _as_register(dest)  # type: ignore[arg-type]
        self.current_block.append(make_load(reg, _as_value(address)))
        return reg

    def store(self, address: Operand, value: Operand) -> None:
        """Emit ``store address, value``."""
        self.current_block.append(make_store(_as_value(address), _as_value(value)))

    def call(self, dest: Optional[Operand], args: Iterable[Operand]) -> Optional[VirtualRegister]:
        """Emit a call, optionally producing a result register."""
        reg = _as_register(dest) if dest is not None else None  # type: ignore[arg-type]
        self.current_block.append(make_call(reg, [_as_value(a) for a in args]))
        return reg

    def phi(self, dest: Operand, incoming: Optional[dict] = None) -> Phi:
        """Emit a φ-function in the current block."""
        reg = _as_register(dest)  # type: ignore[arg-type]
        node = Phi(reg, {label: _as_value(v) for label, v in (incoming or {}).items()})
        self.current_block.append(node)
        return node

    # ------------------------------------------------------------------ #
    # terminators
    # ------------------------------------------------------------------ #
    def br(self, target: Union[BasicBlock, str]) -> None:
        """Emit an unconditional branch."""
        label = target.label if isinstance(target, BasicBlock) else target
        self.current_block.append(make_branch(label))

    def cbr(self, condition: Operand, if_true: Union[BasicBlock, str], if_false: Union[BasicBlock, str]) -> None:
        """Emit a conditional branch."""
        t = if_true.label if isinstance(if_true, BasicBlock) else if_true
        f = if_false.label if isinstance(if_false, BasicBlock) else if_false
        self.current_block.append(make_cond_branch(_as_value(condition), t, f))

    def ret(self, value: Optional[Operand] = None) -> None:
        """Emit a return."""
        self.current_block.append(make_return(_as_value(value) if value is not None else None))

    # ------------------------------------------------------------------ #
    def finish(self, verify: bool = True) -> Function:
        """Return the built function, verifying it by default."""
        if verify:
            # Imported here: the checkers import the IR package.
            from repro.check import static_errors

            errors = static_errors(self.function)
            if errors:
                raise VerificationError(errors[0].message)
        return self.function
