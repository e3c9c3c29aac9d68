"""High-level entry points of the machine-verifier.

* :func:`check_ir_function` / :func:`check_ir_module` — standalone static
  verification of parsed or constructed IR (what ``repro-alloc check`` and
  the oracle's pre-execution filter call);
* :func:`check_pipeline_context` — run the applicable checkers over a
  :class:`~repro.pipeline.context.PipelineContext` (what the engine's
  ``check="boundaries"``/``"each"`` contract enforcement calls);
* :func:`static_errors` — the error-severity subset for quick gating.

Checker execution order is stable (CFG before SSA before opcode sanity), so
the first error of a run is deterministic — ``IRBuilder.finish`` raises it
and the minimizer rejects candidates on it.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.check.diagnostics import Diagnostic, errors_of, filter_diagnostics
from repro.check.registry import CheckRequest, run_checkers
from repro.ir.function import Function
from repro.ir.module import Module

#: checkers that inspect bare IR (in check order).
IR_CHECKERS: Tuple[str, ...] = ("cfg", "ssa", "ops")

#: every built-in checker, in the order a full-context check runs them.
ALL_CHECKERS: Tuple[str, ...] = (
    "cfg",
    "ssa",
    "ops",
    "liveness",
    "interference",
    "allocation",
    "assignment-check",
    "target",
    "spill",
)


def _ir_context(function: Function) -> object:
    """A minimal context exposing only the input function."""
    from repro.pipeline.context import PipelineContext

    return PipelineContext(function=function, name=function.name)


def check_ir_function(
    function: Function,
    ssa: bool = False,
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
    checkers: Tuple[str, ...] = IR_CHECKERS,
) -> List[Diagnostic]:
    """All static diagnostics for one IR function (CFG, SSA, opcode sanity)."""
    request = CheckRequest(_ir_context(function), ssa=ssa)  # type: ignore[arg-type]
    diagnostics = run_checkers(request, names=checkers)
    return filter_diagnostics(diagnostics, select=select, ignore=ignore)


def check_ir_module(
    module: Module,
    ssa: bool = False,
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
) -> List[Diagnostic]:
    """Static diagnostics for every function of ``module``, in order."""
    diagnostics: List[Diagnostic] = []
    for function in module:
        diagnostics.extend(check_ir_function(function, ssa=ssa))
    return filter_diagnostics(diagnostics, select=select, ignore=ignore)


def check_pipeline_context(
    context: object,
    ssa: bool = False,
    stage: Optional[str] = None,
    checkers: Optional[Tuple[str, ...]] = None,
) -> List[Diagnostic]:
    """Run the applicable checkers over a pipeline context.

    ``checkers`` restricts the run (e.g. a pass's ``check_preserves``
    contract); ``None`` runs every built-in checker whose required context
    fields are present.  ``stage`` tags the produced diagnostics with the
    pipeline pass they follow.
    """
    request = CheckRequest(context, ssa=ssa, stage=stage)  # type: ignore[arg-type]
    return run_checkers(request, names=checkers if checkers is not None else ALL_CHECKERS)


def static_errors(function: Function, ssa: bool = False) -> List[Diagnostic]:
    """The error-severity diagnostics of one function (gating helper)."""
    return errors_of(check_ir_function(function, ssa=ssa))
