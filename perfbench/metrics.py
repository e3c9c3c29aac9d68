"""Metric arithmetic shared by every workload of the benchmark.

Everything here is pure: plain numbers in, plain numbers out, no imports
from the program under test.  ``test_metrics.py`` pins each function.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation between ranks.

    Rank ``q/100 * (n - 1)`` of the sorted values, interpolated between its
    two neighbours (the "linear" method of NumPy and of
    ``statistics.quantiles(method="inclusive")``).
    """
    if not values:
        raise ValueError("percentile of an empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside [0, 100]")
    ordered = sorted(values)
    rank = q / 100.0 * (len(ordered) - 1)
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    fraction = rank - low
    return ordered[low] + (ordered[high] - ordered[low]) * fraction


def median(values: Sequence[float]) -> float:
    """The median (the 50th percentile)."""
    return percentile(values, 50.0)


def mean(values: Sequence[float]) -> float:
    """The arithmetic mean; raises on an empty sequence."""
    if not values:
        raise ValueError("mean of an empty sequence")
    return math.fsum(values) / len(values)


def residual(total: float, parts: Iterable[float]) -> float:
    """What the named layers leave unexplained: ``total - sum(parts)``.

    A layer the benchmark does not measure shows up here, so a large
    residual means the decomposition is missing something.
    """
    return total - math.fsum(parts)


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, or 0.0 when there is nothing to divide by."""
    return numerator / denominator if denominator else 0.0


def norm_cost(series: Mapping[str, Mapping[object, float]], allocator: str) -> float:
    """Mean of one allocator's row of a figure series.

    ``series`` is ``FigureResult.series``: allocator -> register count ->
    mean spill cost normalised to Optimal.  Cells with no instance (NaN) are
    skipped, the way the rendered figure leaves them blank.
    """
    row = series.get(allocator)
    if not row:
        raise KeyError(f"series has no row for allocator {allocator!r}")
    finite = [value for value in row.values() if value is not None and math.isfinite(value)]
    if not finite:
        raise ValueError(f"series row {allocator!r} has no finite cell")
    return mean(finite)


def normalised_costs(
    costs: Mapping[str, Mapping[str, float]], optimal: str = "Optimal"
) -> Dict[str, float]:
    """Mean cost of each allocator normalised to ``optimal``, per instance.

    ``costs`` maps an instance to ``{allocator: spill cost}``.  The ratio
    follows the figures' convention: an instance whose optimum is 0 counts
    1.0 when the allocator also spills nothing, and is left out (unbounded)
    when it spills anyway.
    """
    ratios: Dict[str, list] = {}
    for row in costs.values():
        best = row[optimal]
        for allocator, cost in row.items():
            if best > 0:
                value: Optional[float] = cost / best
            else:
                value = 1.0 if cost == 0 else None
            if value is not None:
                ratios.setdefault(allocator, []).append(value)
    return {allocator: mean(values) for allocator, values in ratios.items()}


def lap_throughputs(windows: Sequence[Tuple[float, float]], lap: int) -> List[float]:
    """Work per second of each run of ``lap`` consecutive ``(work, seconds)`` windows.

    The last lap may be shorter when the windows do not divide evenly.
    """
    if lap < 1:
        raise ValueError(f"lap must be >= 1, got {lap}")
    laps = [windows[start:start + lap] for start in range(0, len(windows), lap)]
    return [math.fsum(work for work, _ in chunk) / math.fsum(seconds for _, seconds in chunk) for chunk in laps]


def summarize_latencies(samples_s: Sequence[float]) -> Dict[str, float]:
    """p50 and p95, in milliseconds, of latencies given in seconds."""
    millis = [sample * 1000.0 for sample in samples_s]
    return {"p50_ms": percentile(millis, 50.0), "p95_ms": percentile(millis, 95.0)}
