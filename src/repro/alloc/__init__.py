"""Register allocators: the paper's layered family plus all baselines.

The allocators all solve the *spill-everywhere* problem in a decoupled
setting: given a weighted interference graph (vertex weight = spill cost) and
``R`` registers, pick the set of variables to keep in registers so that the
allocated sub-graph is R-colorable and the total weight of spilled variables
is minimal.

Paper algorithms
----------------
================  ==============================================  =================
Name (paper)      Class                                            Module
================  ==============================================  =================
NL                :class:`LayeredOptimalAllocator`                 ``layered``
BL                :class:`BiasedLayeredAllocator`                  ``biased``
FPL               :class:`FixedPointLayeredAllocator`              ``fixed_point``
BFPL              :class:`BiasedFixedPointLayeredAllocator`        ``fixed_point``
LH                :class:`LayeredHeuristicAllocator`               ``layered_heuristic``
GC                :class:`ChaitinBriggsAllocator`                  ``chaitin``
LS                :class:`LinearScanAllocator`                     ``linear_scan``
BLS               :class:`BeladyLinearScanAllocator`               ``linear_scan``
Optimal           :class:`OptimalAllocator`                        ``optimal``
================  ==============================================  =================
"""

from repro.alloc.problem import AllocationProblem
from repro.alloc.result import AllocationResult
from repro.alloc.base import Allocator, available_allocators, get_allocator, register_allocator
from repro.alloc.layered import LayeredOptimalAllocator
from repro.alloc.biased import BiasedLayeredAllocator, bias_weights
from repro.alloc.fixed_point import BiasedFixedPointLayeredAllocator, FixedPointLayeredAllocator
from repro.alloc.layered_heuristic import LayeredHeuristicAllocator, cluster_vertices
from repro.alloc.chaitin import ChaitinBriggsAllocator
from repro.alloc.linear_scan import BeladyLinearScanAllocator, LinearScanAllocator
from repro.alloc.optimal import OptimalAllocator
from repro.alloc.optimal_bb import BranchAndBoundAllocator
from repro.alloc.assignment import assign_registers
from repro.alloc.spill_code import insert_spill_code
from repro.alloc.load_store_opt import insert_optimized_spill_code, remove_redundant_reloads

__all__ = [
    "AllocationProblem",
    "AllocationResult",
    "Allocator",
    "available_allocators",
    "get_allocator",
    "register_allocator",
    "LayeredOptimalAllocator",
    "BiasedLayeredAllocator",
    "bias_weights",
    "FixedPointLayeredAllocator",
    "BiasedFixedPointLayeredAllocator",
    "LayeredHeuristicAllocator",
    "cluster_vertices",
    "ChaitinBriggsAllocator",
    "LinearScanAllocator",
    "BeladyLinearScanAllocator",
    "OptimalAllocator",
    "BranchAndBoundAllocator",
    "assign_registers",
    "insert_spill_code",
    "insert_optimized_spill_code",
    "remove_redundant_reloads",
]
