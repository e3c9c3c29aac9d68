"""Definition and SSA/dominance checks (codes ``SSA001``–``SSA005``).

``SSA002`` (every used register has a definition) always applies; the
strict-SSA invariants — single assignment (``SSA001``), def-dominates-use
across blocks (``SSA003``), φ-operand dominance on the incoming edge
(``SSA004``) and same-block use-before-def (``SSA005``) — fire only when the
check request expects SSA form (``CheckRequest.ssa``).

Dominance needs a well-formed CFG, so the checker bails out silently when
:func:`repro.check.cfg.cfg_diagnostics` reports structural errors (the CFG
checker already owns those findings).
"""

from __future__ import annotations

from typing import Dict, List

from repro.check.cfg import cfg_diagnostics, has_structural_errors
from repro.check.diagnostics import Diagnostic, Location
from repro.check.registry import Checker, CheckRequest
from repro.ir.function import Function
from repro.ir.instructions import Phi
from repro.ir.values import VirtualRegister


def defs_exist_diagnostics(function: Function) -> List[Diagnostic]:
    """``SSA002``: every used register is defined somewhere or is a parameter."""
    diagnostics: List[Diagnostic] = []
    defined = function.defined_registers()
    for block in function:
        for index, instruction in enumerate(block.all_instructions()):
            for reg in instruction.used_registers():
                if reg not in defined:
                    diagnostics.append(
                        Diagnostic(
                            code="SSA002",
                            message=(
                                f"register {reg} used in block {block.label!r} "
                                f"of {function.name!r} but never defined"
                            ),
                            location=Location(
                                function=function.name,
                                block=block.label,
                                instr=index,
                                operand=str(reg),
                            ),
                            hint="define the register or add it as a parameter",
                        )
                    )
    return diagnostics


def single_assignment_diagnostics(function: Function) -> List[Diagnostic]:
    """``SSA001``: one aggregated diagnostic naming every multiply-defined reg.

    Aggregated (instead of one diagnostic per register) so one message
    lists every offender.
    """
    counts: Dict[VirtualRegister, int] = {}
    for param in function.parameters:
        counts[param] = counts.get(param, 0) + 1
    for instruction in function.instructions():
        for reg in instruction.defined_registers():
            counts[reg] = counts.get(reg, 0) + 1
    violations = sorted(str(reg) for reg, count in counts.items() if count > 1)
    if not violations:
        return []
    return [
        Diagnostic(
            code="SSA001",
            message=(
                f"function {function.name!r} is not in SSA form: "
                f"multiple definitions of {violations}"
            ),
            location=Location(function=function.name, operand=", ".join(violations)),
            hint="run SSA construction (or drop require_ssa)",
        )
    ]


def dominance_diagnostics(function: Function) -> List[Diagnostic]:
    """``SSA003``–``SSA005``: definitions must dominate uses.

    φ operands count as uses on the incoming edge (``SSA004``); same-block
    violations are use-before-def (``SSA005``); cross-block violations are
    ``SSA003``.  A use of a register with no definition at all also lands
    here (as ``SSA002``) so the check stands alone, although the
    defs-exist check normally reports it first.
    """
    from repro.analysis.dominators import dominator_tree

    dominators = dominator_tree(function).dominators
    def_block: Dict[VirtualRegister, str] = {}
    for param in function.parameters:
        def_block[param] = function.entry_label  # type: ignore[assignment]
    for block in function:
        for instruction in block.all_instructions():
            for reg in instruction.defined_registers():
                def_block.setdefault(reg, block.label)

    def dominates(a: str, b: str) -> bool:
        return a in dominators.get(b, set())

    diagnostics: List[Diagnostic] = []
    for block in function:
        local_position: Dict[VirtualRegister, int] = {}
        for position, instruction in enumerate(block.all_instructions()):
            for reg in instruction.defined_registers():
                local_position.setdefault(reg, position)
        for position, instruction in enumerate(block.all_instructions()):
            if isinstance(instruction, Phi):
                for pred_label, value in instruction.incoming.items():
                    if isinstance(value, VirtualRegister):
                        origin = def_block.get(value)
                        if origin is None or not dominates(origin, pred_label):
                            diagnostics.append(
                                Diagnostic(
                                    code="SSA004",
                                    message=(
                                        f"phi operand {value} (from {pred_label!r}) "
                                        "not dominated by its definition in function "
                                        f"{function.name!r}"
                                    ),
                                    location=Location(
                                        function=function.name,
                                        block=block.label,
                                        instr=position,
                                        operand=str(value),
                                    ),
                                    hint="route the value through the dominating path",
                                )
                            )
                continue
            for reg in instruction.used_registers():
                origin = def_block.get(reg)
                if origin is None:
                    diagnostics.append(
                        Diagnostic(
                            code="SSA002",
                            message=f"register {reg} has no definition",
                            location=Location(
                                function=function.name,
                                block=block.label,
                                instr=position,
                                operand=str(reg),
                            ),
                        )
                    )
                elif origin == block.label:
                    if (
                        local_position.get(reg, -1) >= position
                        and reg not in function.parameters
                    ):
                        diagnostics.append(
                            Diagnostic(
                                code="SSA005",
                                message=(
                                    f"register {reg} used before its definition "
                                    f"in block {block.label!r}"
                                ),
                                location=Location(
                                    function=function.name,
                                    block=block.label,
                                    instr=position,
                                    operand=str(reg),
                                ),
                                hint="move the definition above the use",
                            )
                        )
                elif not dominates(origin, block.label):
                    diagnostics.append(
                        Diagnostic(
                            code="SSA003",
                            message=(
                                f"use of {reg} in block {block.label!r} is not "
                                "dominated by its definition in block "
                                f"{origin!r}"
                            ),
                            location=Location(
                                function=function.name,
                                block=block.label,
                                instr=position,
                                operand=str(reg),
                            ),
                            hint="insert a phi at the join or hoist the definition",
                        )
                    )
    return diagnostics


def ssa_diagnostics(function: Function, require_ssa: bool = False) -> List[Diagnostic]:
    """Defs-exist plus (optionally) the strict-SSA invariants, in a stable order."""
    structural = cfg_diagnostics(function, notes=False)
    if has_structural_errors(structural):
        return []
    diagnostics = defs_exist_diagnostics(function)
    if require_ssa:
        diagnostics.extend(single_assignment_diagnostics(function))
        diagnostics.extend(dominance_diagnostics(function))
    return diagnostics


class SSAChecker(Checker):
    """Registry wrapper over :func:`ssa_diagnostics` for the subject IR."""

    name = "ssa"
    codes = ("SSA001", "SSA002", "SSA003", "SSA004", "SSA005")
    requires = ()

    def run(self, request: CheckRequest) -> List[Diagnostic]:
        subject = request.subject_function()
        if subject is None:
            return []
        assert isinstance(subject, Function)
        return ssa_diagnostics(subject, require_ssa=request.ssa)
