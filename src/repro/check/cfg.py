"""CFG integrity checks (codes ``CFG001``–``CFG007``).

Structural invariants every analysis in :mod:`repro.analysis` assumes:
blocks exist, each ends with exactly one terminator, branch targets resolve,
φs have one incoming value per CFG predecessor.  Reachability (``CFG005``)
and critical edges (``CFG006``) are *notes*: unreachable blocks and critical
edges occur legitimately in fuzzed or minimized programs, so they inform
without failing a check run.

The free function :func:`cfg_diagnostics` is the reusable core — the SSA,
liveness and spill checkers call it to decide whether a function is sound
enough to run dominator/dataflow computations on.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.check.diagnostics import Diagnostic, Location, Severity
from repro.check.registry import Checker, CheckRequest
from repro.ir.function import Function

#: codes that make dominator/liveness computation on the function unsafe.
STRUCTURAL_CODES = ("CFG001", "CFG002", "CFG003", "CFG004", "CFG007")


def cfg_diagnostics(function: Function, notes: bool = True) -> List[Diagnostic]:
    """All CFG diagnostics for ``function``, in a stable order.

    No-blocks first, then per-block terminator/target checks in insertion
    order, then φ arity — so the first error is the same for every caller
    (``IRBuilder.finish`` and the minimizer raise or reject on it).
    ``notes=False`` suppresses the informational ``CFG005``/``CFG006``
    diagnostics.
    """
    diagnostics: List[Diagnostic] = []
    if len(function) == 0:
        diagnostics.append(
            Diagnostic(
                code="CFG001",
                message=f"function {function.name!r} has no blocks",
                location=Location(function=function.name),
                hint="add an entry block with a terminator",
            )
        )
        return diagnostics

    labels = set(function.block_labels())
    for block in function:
        where = Location(function=function.name, block=block.label)
        terminator = block.terminator
        if terminator is None:
            diagnostics.append(
                Diagnostic(
                    code="CFG002",
                    message=(
                        f"block {block.label!r} of {function.name!r} "
                        "does not end with a terminator"
                    ),
                    location=where,
                    hint="end the block with br/cbr/ret",
                )
            )
        for index, instruction in enumerate(block.instructions[:-1]):
            if instruction.is_terminator:
                diagnostics.append(
                    Diagnostic(
                        code="CFG003",
                        message=(
                            f"block {block.label!r} of {function.name!r} "
                            "has a terminator in the middle"
                        ),
                        location=Location(
                            function=function.name,
                            block=block.label,
                            instr=len(block.phis) + index,
                        ),
                        hint="split the block or drop the dead tail",
                    )
                )
        if terminator is not None:
            for target in terminator.targets:
                if target not in labels:
                    diagnostics.append(
                        Diagnostic(
                            code="CFG004",
                            message=(
                                f"block {block.label!r} branches to "
                                f"unknown block {target!r}"
                            ),
                            location=Location(
                                function=function.name,
                                block=block.label,
                                instr=len(block) - 1,
                                operand=target,
                            ),
                            hint="create the target block or fix the label",
                        )
                    )

    diagnostics.extend(_phi_arity_diagnostics(function))
    if notes and not any(d.code in STRUCTURAL_CODES for d in diagnostics):
        diagnostics.extend(_reachability_notes(function))
        diagnostics.extend(_critical_edge_notes(function))
    return diagnostics


def has_structural_errors(diagnostics: List[Diagnostic]) -> bool:
    """Whether any diagnostic forbids running dominators/dataflow."""
    return any(d.code in STRUCTURAL_CODES and d.is_error for d in diagnostics)


def _phi_arity_diagnostics(function: Function) -> List[Diagnostic]:
    """``CFG007``: φs must have exactly one incoming value per predecessor."""
    diagnostics: List[Diagnostic] = []
    # One pass over the edges (``Function.predecessors`` rescans every block).
    predecessors: Dict[str, Set[str]] = {block.label: set() for block in function}
    for block in function:
        for successor in block.successors():
            if successor in predecessors:
                predecessors[successor].add(block.label)
    for block in function:
        preds = predecessors[block.label]
        for index, phi in enumerate(block.phis):
            incoming = set(phi.incoming)
            if incoming != preds:
                diagnostics.append(
                    Diagnostic(
                        code="CFG007",
                        message=(
                            f"phi {phi.target} in block {block.label!r} has incoming "
                            f"edges {sorted(incoming)} but the block's predecessors "
                            f"are {sorted(preds)}"
                        ),
                        location=Location(
                            function=function.name,
                            block=block.label,
                            instr=index,
                            operand=str(phi.target),
                        ),
                        hint="add/remove incoming values to match the CFG edges",
                    )
                )
    return diagnostics


def _reachability_notes(function: Function) -> List[Diagnostic]:
    """``CFG005`` (note): blocks not reachable from the entry."""
    from repro.analysis.cfg import ControlFlowGraph

    reachable = ControlFlowGraph(function).reachable_blocks()
    return [
        Diagnostic(
            code="CFG005",
            message=f"block {label!r} is unreachable from the entry",
            severity=Severity.NOTE,
            location=Location(function=function.name, block=label),
            hint="remove the dead block or add an edge to it",
        )
        for label in function.block_labels()
        if label not in reachable
    ]


def _critical_edge_notes(function: Function) -> List[Diagnostic]:
    """``CFG006`` (note): edges from multi-successor to multi-predecessor."""
    from repro.analysis.cfg import ControlFlowGraph

    cfg = ControlFlowGraph(function)
    notes: List[Diagnostic] = []
    seen: Set[Tuple[str, str]] = set()
    for source, targets in cfg.successors.items():
        if len(set(targets)) < 2:
            continue
        for target in targets:
            if len(cfg.predecessors[target]) >= 2 and (source, target) not in seen:
                seen.add((source, target))
                notes.append(
                    Diagnostic(
                        code="CFG006",
                        message=(
                            f"critical edge {source!r} -> {target!r} "
                            "(multi-successor source, multi-predecessor target)"
                        ),
                        severity=Severity.NOTE,
                        location=Location(function=function.name, block=source),
                        hint="split the edge before inserting edge code",
                    )
                )
    return notes


class CFGChecker(Checker):
    """Registry wrapper running :func:`cfg_diagnostics` on the subject IR."""

    name = "cfg"
    codes = ("CFG001", "CFG002", "CFG003", "CFG004", "CFG005", "CFG006", "CFG007")
    requires = ()

    def run(self, request: CheckRequest) -> List[Diagnostic]:
        subject = request.subject_function()
        if subject is None:
            return []
        assert isinstance(subject, Function)
        return cfg_diagnostics(subject)
