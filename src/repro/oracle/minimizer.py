"""Delta-debugging minimization of oracle counterexamples.

Given a failing program and a ``is_failing`` predicate (typically "the
differential oracle still reports the same kind of mismatch"), the minimizer
shrinks the program while *always* preserving two invariants:

* every intermediate candidate passes the IR verifier (so the reproducer is
  a legal program, not garbage the pipeline happens to choke on); and
* the returned program still satisfies ``is_failing`` — the minimizer never
  trades the bug away for size.

Three reduction strategies run to a fixpoint:

1. **ddmin instruction deletion** — chunks of non-terminator instructions
   (φs included) are deleted, with uses of any now-undefined register
   replaced by the constant 0, halving the chunk size down to single
   instructions (Zeller & Hildebrandt's ddmin adapted to structured IR);
2. **branch simplification** — each ``cbr`` is rewritten to an unconditional
   ``br`` along either arm, collapsing diamonds and unrolling loop exits;
3. **CFG tidying** — unreachable blocks are dropped and φ inputs from
   removed edges pruned.

The shipped regression corpus (``tests/oracle/regressions/``) is built from
minimizer output, so every golden case is a handful of instructions.
"""

from __future__ import annotations

from typing import Callable, List, Sequence, Tuple

from repro.check import static_errors
from repro.errors import IRError
from repro.ir.function import Function
from repro.ir.instructions import Opcode, make_branch
from repro.ir.values import Constant

IsFailing = Callable[[Function], bool]

#: a deletion site: (block label, "phi" | "instr", index within that list).
Site = Tuple[str, str, int]


def _is_valid(function: Function) -> bool:
    """Whether the candidate is structurally legal IR."""
    try:
        return not static_errors(function)
    except IRError:
        return False


def _deletion_sites(function: Function) -> List[Site]:
    """Every instruction that may be deleted (terminators must stay)."""
    sites: List[Site] = []
    for block in function:
        for index in range(len(block.phis)):
            sites.append((block.label, "phi", index))
        for index, instruction in enumerate(block.instructions):
            if not instruction.is_terminator:
                sites.append((block.label, "instr", index))
    return sites


def _delete(function: Function, doomed: Sequence[Site]) -> Function:
    """Clone ``function`` without the ``doomed`` sites, patching dangling uses.

    Registers that lose their last definition have every remaining use
    replaced by the constant 0, keeping the candidate verifiable.
    """
    candidate = function.clone()
    doomed_set = set(doomed)
    for block in candidate:
        block.phis = [
            phi
            for index, phi in enumerate(block.phis)
            if (block.label, "phi", index) not in doomed_set
        ]
        block.instructions = [
            instruction
            for index, instruction in enumerate(block.instructions)
            if (block.label, "instr", index) not in doomed_set
        ]
    defined = candidate.defined_registers()
    zero = Constant(0)
    for block in candidate:
        for instruction in block.all_instructions():
            for reg in list(instruction.used_registers()):
                if reg not in defined:
                    instruction.replace_use(reg, zero)
    return candidate


def _tidy(function: Function) -> Function:
    """Drop unreachable blocks and prune φ inputs from removed edges."""
    candidate = function.clone()
    reachable = set()
    stack = [candidate.entry_label]
    while stack:
        label = stack.pop()
        if label in reachable or label is None:
            continue
        reachable.add(label)
        stack.extend(candidate.block(label).successors())
    candidate.blocks = {
        label: block for label, block in candidate.blocks.items() if label in reachable
    }
    zero = Constant(0)
    for block in candidate:
        predecessors = set(candidate.predecessors(block.label))
        kept = []
        for phi in block.phis:
            phi.incoming = {
                label: value for label, value in phi.incoming.items() if label in predecessors
            }
            phi.uses = list(phi.incoming.values())
            if phi.incoming:
                kept.append(phi)
        dead_targets = {phi.target for phi in block.phis if phi not in kept}
        block.phis = kept
        if dead_targets:
            defined = candidate.defined_registers()
            for other in candidate:
                for instruction in other.all_instructions():
                    for reg in list(instruction.used_registers()):
                        if reg in dead_targets and reg not in defined:
                            instruction.replace_use(reg, zero)
    return candidate


def _collapse_trivial_blocks(function: Function) -> Function:
    """Thread jumps through blocks that contain nothing but a ``br``.

    Every predecessor of such a block is redirected to its unique successor
    (φ inputs re-attributed edge by edge), after which the trivial block is
    unreachable and :func:`_tidy` drops it.  Cycles of trivial blocks are
    handled by the one-pass sweep: each block is threaded at most once per
    call, and the minimizer's round loop reaches the fixpoint.
    """
    candidate = function.clone()
    for block in list(candidate):
        if block.label == candidate.entry_label or block.phis:
            continue
        if len(block.instructions) != 1 or block.instructions[0].opcode is not Opcode.BR:
            continue
        successor_label = block.instructions[0].targets[0]
        if successor_label == block.label:
            continue  # a self-loop has nothing to thread
        successor = candidate.block(successor_label)
        predecessors = candidate.predecessors(block.label)
        conflict = any(
            label in phi.incoming and phi.incoming[label] != phi.incoming.get(block.label)
            for phi in successor.phis
            for label in predecessors
        )
        if conflict:
            continue
        for label in predecessors:
            terminator = candidate.block(label).terminator
            if terminator is None:
                continue
            terminator.targets = [
                successor_label if t == block.label else t for t in terminator.targets
            ]
            for phi in successor.phis:
                if block.label in phi.incoming:
                    phi.add_incoming(label, phi.incoming[block.label])
    return _tidy(candidate)


def _branch_candidates(function: Function) -> List[Function]:
    """Every single-cbr-to-br rewrite of ``function``, tidied."""
    candidates: List[Function] = []
    for block in function:
        terminator = block.terminator
        if terminator is None or terminator.opcode is not Opcode.CBR:
            continue
        for target in terminator.targets:
            candidate = function.clone()
            candidate.block(block.label).instructions[-1] = make_branch(target)
            candidates.append(_tidy(candidate))
    return candidates


def _accept(candidate: Function, is_failing: IsFailing) -> bool:
    return _is_valid(candidate) and is_failing(candidate)


def _ddmin_pass(current: Function, is_failing: IsFailing) -> Tuple[Function, bool]:
    """One full ddmin sweep of instruction deletion; returns (program, shrunk?)."""
    shrunk = False
    sites = _deletion_sites(current)
    chunk = max(1, len(sites) // 2)
    while chunk >= 1:
        index = 0
        progressed = False
        while True:
            sites = _deletion_sites(current)
            if index >= len(sites):
                break
            doomed = sites[index : index + chunk]
            candidate = _delete(current, doomed)
            if _accept(candidate, is_failing):
                current = candidate
                shrunk = progressed = True
                # Sites shifted: restart this chunk size from the beginning.
                index = 0
            else:
                index += chunk
        if not progressed:
            chunk //= 2
    return current, shrunk


def minimize(
    function: Function,
    is_failing: IsFailing,
    max_rounds: int = 20,
) -> Function:
    """Shrink ``function`` while ``is_failing`` holds; return the reproducer.

    Raises :class:`ValueError` when the input does not fail to begin with —
    a minimizer that "fixes" the program by construction would silently hide
    the bug it was asked to capture.
    """
    if not is_failing(function):
        raise ValueError(
            f"minimize() needs a failing input, but {function.name!r} passes its predicate"
        )
    current = function.clone()
    for _ in range(max_rounds):
        current, shrunk = _ddmin_pass(current, is_failing)
        for candidate in _branch_candidates(current):
            if candidate.num_instructions() < current.num_instructions() and _accept(
                candidate, is_failing
            ):
                current = candidate
                shrunk = True
        threaded = _collapse_trivial_blocks(current)
        if threaded.num_instructions() < current.num_instructions() and _accept(
            threaded, is_failing
        ):
            current = threaded
            shrunk = True
        if not shrunk:
            break
    return current


def minimization_summary(original: Function, minimized: Function) -> str:
    """One-line description of a shrink, for campaign logs."""
    return (
        f"{original.name}: {original.num_instructions()} -> "
        f"{minimized.num_instructions()} instructions, "
        f"{len(original)} -> {len(minimized)} blocks"
    )
