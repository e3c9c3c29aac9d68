"""Allocator base class and registry.

Every allocator exposes one method, :meth:`Allocator.allocate`, taking an
:class:`~repro.alloc.problem.AllocationProblem` and returning an
:class:`~repro.alloc.result.AllocationResult`.  The registry maps the short
names used throughout the paper (``"GC"``, ``"NL"``, ``"BL"``, ``"FPL"``,
``"BFPL"``, ``"LH"``, ``"LS"``, ``"BLS"``, ``"Optimal"``) to classes so the
experiment harness and the CLI can select allocators by name.
"""

from __future__ import annotations

import abc
from typing import Callable, Dict, List, Type

from repro.alloc.problem import AllocationProblem
from repro.alloc.result import AllocationResult
from repro.errors import AllocationError


class Allocator(abc.ABC):
    """Abstract base class of every register allocator."""

    #: registry name; subclasses must override.
    name: str = "abstract"
    #: algorithm version tag, part of the experiment store's cache key
    #: ``(problem_digest, name, version, R)``.  Bump it whenever a change can
    #: alter the *result* of :meth:`allocate` on some instance (spill set,
    #: cost, tie-breaking); pure speedups with identical output keep the tag,
    #: so previously cached cells stay valid.
    version: str = "1"
    #: whether :meth:`allocate` honors
    #: :attr:`AllocationProblem.constraints
    #: <repro.alloc.problem.AllocationProblem.constraints>` (register
    #: classes, pre-coloring, aliasing).  The pipeline refuses to run a
    #: constrained problem through a non-supporting allocator — silently
    #: ignoring constraints would produce assignments the verifier rejects.
    supports_constraints: bool = False

    @abc.abstractmethod
    def allocate(self, problem: AllocationProblem) -> AllocationResult:
        """Solve ``problem`` and return which variables are kept in registers."""

    def preload(self) -> None:
        """Load what :meth:`allocate` imports lazily; a no-op by default.

        Pooled runs call this once in the parent before forking, so every
        worker inherits a heavy dependency (the MILP backend of ``Optimal``)
        instead of importing its own copy.
        """

    # ------------------------------------------------------------------ #
    # shared helpers
    # ------------------------------------------------------------------ #
    def _result(
        self,
        problem: AllocationProblem,
        allocated,
        stats: Dict | None = None,
    ) -> AllocationResult:
        """Package an allocated set into a result, computing the spill cost."""
        allocated = set(allocated)
        spilled = [v for v in problem.graph.vertices() if v not in allocated]
        return AllocationResult.from_sets(
            allocator=self.name,
            num_registers=problem.num_registers,
            allocated=allocated,
            spilled=spilled,
            spill_cost=problem.spill_cost_of(spilled),
            stats=stats,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


_REGISTRY: Dict[str, Callable[[], Allocator]] = {}


def register_allocator(name: str, factory: Callable[[], Allocator] | Type[Allocator]) -> None:
    """Register an allocator factory under ``name`` (case-insensitive)."""
    _REGISTRY[name.lower()] = factory  # type: ignore[assignment]


def get_allocator(name: str) -> Allocator:
    """Instantiate the allocator registered under ``name``."""
    try:
        factory = _REGISTRY[name.lower()]
    except KeyError:
        raise AllocationError(
            f"unknown allocator {name!r}; available: {sorted(_REGISTRY)}"
        ) from None
    return factory()


def available_allocators() -> List[str]:
    """Names of all registered allocators, sorted."""
    return sorted(_REGISTRY)
