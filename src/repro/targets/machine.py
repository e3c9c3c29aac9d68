"""The target machine abstraction.

Beyond the scalar parameters (register count, memory latencies, issue
width), a :class:`TargetMachine` can describe the *structure* of its
register file:

* :class:`RegisterClass` — a named subset of the file an operand may be
  restricted to (``rvc`` on RISC-V, ``low8`` on Thumb, ...);
* aliasing pairs — registers that overlap in hardware (ARM's ``s0``/``s1``
  sub-registers of ``d0``) and therefore conflict even across classes;
* call-clobbered registers — the caller-saved subset, the natural pre-color
  constraint source for values live across calls;
* :meth:`TargetMachine.allocatable` — the register file *minus*
  ``reserved_registers``, which is the set allocators and the assignment
  stage may actually hand out.

Every structural field defaults to empty, so the three historical targets
(and any :class:`TargetMachine` constructed by tests) behave exactly as
before unless a description opts in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple


@dataclass(frozen=True)
class RegisterClass:
    """A named subset of a target's register file.

    Attributes
    ----------
    name:
        Class identifier used in per-variable constraints (``"gpr"``,
        ``"rvc"``, ...).
    members:
        The register names belonging to the class, in allocation-preference
        order.  Must be a subset of the target's register file.
    """

    name: str
    members: Tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("register class needs a non-empty name")
        if len(set(self.members)) != len(self.members):
            raise ValueError(f"register class {self.name!r} lists duplicate members")


@dataclass(frozen=True)
class TargetMachine:
    """Architectural parameters relevant to spilling.

    Attributes
    ----------
    name:
        Identifier used by the CLI and the experiment configurations.
    num_registers:
        Number of general-purpose registers in the file (including the
        reserved ones; :meth:`allocatable` subtracts them).
    load_cost / store_cost:
        Relative latency of a reload / spill-store, used to scale the
        frequency-based spill costs.
    issue_width:
        Instructions per cycle — kept for documentation of the VLIW target,
        not used by the allocators.
    reserved_registers:
        Registers unavailable to the allocator (stack pointer, link
        register, ...).  Enforced by :meth:`allocatable`, which is what the
        assignment stage hands out names from.
    names:
        Optional explicit register names, in index order; defaults to
        ``r0..rN``.  Must have exactly ``num_registers`` entries when given.
    register_classes:
        Named register classes per-variable constraints can reference.
        Every member must be a register-file name.
    aliasing:
        Pairs of distinct register names that overlap in hardware; an
        assignment must not give aliasing registers to interfering
        variables.  Stored as entered; :meth:`alias_map` symmetrizes.
    call_clobbered:
        Caller-saved registers — documentation plus the default source of
        pre-color pressure for constraint generators.
    """

    name: str
    num_registers: int
    load_cost: float = 1.0
    store_cost: float = 1.0
    issue_width: int = 1
    reserved_registers: List[str] = field(default_factory=list)
    names: Optional[Tuple[str, ...]] = None
    register_classes: Tuple[RegisterClass, ...] = ()
    aliasing: Tuple[Tuple[str, str], ...] = ()
    call_clobbered: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.num_registers < 0:
            raise ValueError(f"negative register count {self.num_registers}")
        if self.names is not None and len(self.names) != self.num_registers:
            raise ValueError(
                f"target {self.name!r} names {len(self.names)} registers "
                f"but num_registers is {self.num_registers}"
            )
        file_names = set(self.register_names().values())
        for cls in self.register_classes:
            foreign = sorted(set(cls.members) - file_names)
            if foreign:
                raise ValueError(
                    f"register class {cls.name!r} of target {self.name!r} "
                    f"references registers outside the file: {foreign}"
                )
        class_names = [cls.name for cls in self.register_classes]
        if len(set(class_names)) != len(class_names):
            raise ValueError(f"target {self.name!r} declares duplicate register classes")
        for first, second in self.aliasing:
            if first == second:
                raise ValueError(f"register {first!r} cannot alias itself")
            foreign = sorted({first, second} - file_names)
            if foreign:
                raise ValueError(
                    f"aliasing pair ({first!r}, {second!r}) of target "
                    f"{self.name!r} references registers outside the file: {foreign}"
                )
        foreign = sorted(set(self.call_clobbered) - file_names)
        if foreign:
            raise ValueError(
                f"call-clobbered registers of target {self.name!r} are "
                f"outside the file: {foreign}"
            )

    def register_names(self) -> Dict[int, str]:
        """Map color indices to symbolic register names (default ``r0..rN``)."""
        if self.names is not None:
            return dict(enumerate(self.names))
        return {index: f"r{index}" for index in range(self.num_registers)}

    def allocatable(self) -> Tuple[str, ...]:
        """The register names the allocator may hand out, in index order.

        This is the register file minus ``reserved_registers`` — the
        long-documented contract that PR 9 finally enforces.  Reserved names
        that do not appear in the file (the symbolic ``sp``/``lr``/``pc`` of
        the ARM description, whose file is named ``r0..r15``) reserve
        nothing; on ST231 the reserved ``r0``/``r12``/``r63`` are real file
        names, so its 64-register file yields 61 allocatable names.
        """
        reserved = set(self.reserved_registers)
        names = self.register_names()
        return tuple(
            names[i] for i in range(self.num_registers) if names[i] not in reserved
        )

    def allocatable_names(self) -> Dict[int, str]:
        """Allocatable registers as a color-index map (what ``assign`` uses)."""
        return dict(enumerate(self.allocatable()))

    def register_class(self, name: str) -> Optional[RegisterClass]:
        """Look up a register class by name (``None`` when undeclared)."""
        for cls in self.register_classes:
            if cls.name == name:
                return cls
        return None

    def class_names(self) -> Tuple[str, ...]:
        """The declared register-class names, in declaration order."""
        return tuple(cls.name for cls in self.register_classes)

    def alias_map(self) -> Dict[str, FrozenSet[str]]:
        """Symmetric closure of the aliasing pairs: name -> aliasing names."""
        aliases: Dict[str, Set[str]] = {}
        for first, second in self.aliasing:
            aliases.setdefault(first, set()).add(second)
            aliases.setdefault(second, set()).add(first)
        return {name: frozenset(others) for name, others in aliases.items()}

    def scaled_costs(
        self, costs: Dict[str, float], load_fraction: float = 0.5
    ) -> Dict[str, float]:
        """Scale raw access-count costs by this target's memory latencies.

        ``load_fraction`` approximates the share of accesses that are reads;
        spill costs computed directly from the IR should instead pass the
        target's latencies to :func:`repro.analysis.spill_costs.spill_costs`.
        """
        factor = load_fraction * self.load_cost + (1.0 - load_fraction) * self.store_cost
        return {key: value * factor for key, value in costs.items()}
