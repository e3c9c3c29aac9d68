"""``compile``: a closed loop of JIT-style per-function compiles.

Each operation is one ``Pipeline.run`` of the default NL stage chain on
st231 with R=8 and ``check="off"`` — the call a JIT makes per function.
Inputs are a seeded pool of oracle-generator programs, three in four from
the ``medium`` (60 statements) and one in four from the ``large`` (140
statements) profile, so the median sits inside the medium mode and the 95th
percentile inside the large one rather than in the gap between them.  Every
program terminates, so every output gets a differential verdict.
The loop compiles the pool round after round until the time is up; the
first round's outputs are the ones the checks judge, and every later
compile of the same function must reproduce them exactly.  Each compile is
timed on the thread's CPU clock and followed by one reference loop, which
scales it to the reference host (see ``speed.py``).

Stresses ``analysis``, ``alloc`` (allocate/assign/spill_code/loadstore_opt)
and ``check``; bypasses ``store``, ``experiments`` and ``service``.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

from repro.alloc import get_allocator
from repro.oracle.differential import diff_functions
from repro.oracle.generator import generate_program
from repro.pipeline import Pipeline

from perfbench import metrics
from perfbench.common import Checkout, DeterminismLedger, Result, peak_rss_mb
from perfbench.speed import HostSpeed

#: functions in the pool; every fourth one is a large program.
POOL_SIZE = 200
#: the compile spec of every call.
ALLOCATOR, TARGET, REGISTERS = "NL", "st231", 8
#: allocators the pool's problems are normalised against Optimal for.
COMPARED = ("NL", "BFPL", "LH")
#: executed-instruction budget of the differential check.  The oracle
#: default (20k) is sized for the ``small`` profile; nested loops of the
#: ``large`` profile legitimately run a few tens of thousands of steps.
ORACLE_MAX_STEPS = 400_000
#: stage names, in pipeline order, reported as per-layer metrics.
STAGE_LAYERS = (
    ("liveness", "analysis.liveness_ms"),
    ("interference", "analysis.interference_ms"),
    ("extract", "pipeline.extract_ms"),
    ("allocate", "alloc.allocate_ms"),
    ("assign", "alloc.assign_ms"),
    ("spill_code", "alloc.spill_code_ms"),
    ("loadstore_opt", "alloc.loadstore_opt_ms"),
    ("verify", "check.verify_ms"),
)
SETUP_REPEATS = 3


def _generate_pool(seed: int) -> list:
    return [
        generate_program(seed, index, "large" if index % 4 == 3 else "medium")
        for index in range(POOL_SIZE)
    ]


def _fingerprint(context) -> Tuple:
    """The deterministic work counts of one compile."""
    stats = context.stage_stats
    return (
        stats["interference"]["edges"],
        stats["allocate"]["num_spilled"],
        context.spill_cost,
        stats["spill_code"]["loads"],
        stats["spill_code"]["stores"],
        stats["loadstore_opt"]["loads_removed"],
    )


def run(checkout: Checkout, seed: int, seconds: float, trace: bool) -> Result:
    result = Result()

    # -- set-up: input generation and warm-up, several times --------------- #
    speed = HostSpeed()
    setups: List[Tuple[float, float, float]] = []
    for _ in range(SETUP_REPEATS):
        speed.sample(3)
        started, started_wall = time.thread_time(), time.perf_counter()
        pool = _generate_pool(seed)
        pipeline = Pipeline.from_spec(ALLOCATOR, target=TARGET, registers=REGISTERS, check="off")
        for function in pool[:4]:
            pipeline.run(function)
        setups.append((time.thread_time() - started, started_wall, time.perf_counter()))
    speed.sample(3)

    # -- the timed closed loop ---------------------------------------------- #
    # The per-layer numbers are PipelineContext.timings, which every compile
    # records whether or not the run is traced, so tracing adds no work here.
    #: (pool index, CPU seconds, wall start, wall seconds, allocate-stage share) per compile.
    samples: List[Tuple[int, float, float, float, float]] = []
    first: Dict[int, object] = {}
    fingerprints: Dict[int, Tuple] = {}
    stage_totals: Dict[str, float] = {stage: 0.0 for stage, _ in STAGE_LAYERS}
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(first) < len(pool):
        for index, function in enumerate(pool):
            if index in first and time.perf_counter() >= deadline:
                break
            started, started_wall = time.thread_time(), time.perf_counter()
            context = pipeline.run(function)
            cpu, wall = time.thread_time() - started, time.perf_counter() - started_wall
            speed.sample()
            # The stage timings are wall time; the allocate stage's share of
            # it apportions the compile's CPU time.
            samples.append((index, cpu, started_wall, wall, min(1.0, context.timings["allocate"] / wall)))
            result.attempted += 1
            for stage, _ in STAGE_LAYERS:
                stage_totals[stage] += context.timings.get(stage, 0.0)
            fingerprint = _fingerprint(context)
            if index not in first:
                first[index] = context
                fingerprints[index] = fingerprint
            elif fingerprints[index] != fingerprint:
                result.fail(f"compile of pool function {index} drifted: {fingerprint} != {fingerprints[index]}")
    # Before the checks, which run Optimal and the interpreter in this process.
    rss = peak_rss_mb()

    # -- checks (outside the timed region) ---------------------------------- #
    quality = _check_outputs(pool, first, result)
    drift = DeterminismLedger(checkout, "compile", seed).check(quality)
    for name in drift:
        result.fail(f"deterministic metric {name} drifted from the value recorded for seed {seed}")

    # Every function counts once, however many rounds reached it: its
    # latency is the median of its compiles.
    per_function: Dict[int, List[Tuple[float, float]]] = {}
    for index, cpu, start, wall, share in samples:
        per_function.setdefault(index, []).append((speed.scale(cpu, start, start + wall), share))
    latencies = [metrics.median([latency for latency, _ in runs]) for runs in per_function.values()]
    allocate_seconds = sum(
        metrics.median([latency * share for latency, share in runs]) for runs in per_function.values()
    )
    walls = [wall for _, _, _, wall, _ in samples]
    summary = metrics.summarize_latencies(latencies)
    result.notes.append(
        f"{len(samples)} compiles of {len(pool)} functions; p50/p95 over the functions' median latencies; "
        f"reference loop {speed.reference_ms():.3f} ms (median of {len(speed)})"
    )
    result.end_to_end = {
        "setup_s": metrics.median([speed.scale(cpu, start, end) for cpu, start, end in setups]),
        "ok_ratio": result.ok_ratio,
        "peak_rss_mb": rss,
        "fn_per_s": len(latencies) / sum(latencies),
        "p50_ms": summary["p50_ms"],
        "p95_ms": summary["p95_ms"],
        "sweep_cells_per_s": len(latencies) / allocate_seconds,
        "warm_s": metrics.mean(latencies) * len(pool),
        "spill_ops_dyn": quality["spill_ops_dyn"],
        "norm_cost.NL": quality["norm_cost.NL"],
        "norm_cost.BFPL": quality["norm_cost.BFPL"],
        "norm_cost.LH": quality["norm_cost.LH"],
    }
    if trace:
        layers = {name: stage_totals[stage] / len(samples) * 1000.0 for stage, name in STAGE_LAYERS}
        layers["pipeline.residual_ms"] = metrics.residual(metrics.mean(walls) * 1000.0, layers.values())
        layers.update(
            {
                "graphs.edges": quality["edges"],
                "alloc.spilled": quality["spilled"],
                "alloc.spill_instrs": quality["spill_instrs"],
                "alloc.loads_removed_ratio": quality["loads_removed_ratio"],
                "oracle.spill_ops": quality["spill_ops"],
                # 0 by construction: the traced run does the untraced run's work.
                "trace.overhead_ratio": 0.0,
            }
        )
        result.layers = layers
        result.notes.append(
            "per-layer times are PipelineContext.timings, recorded by every compile; "
            "tracing adds no work, so trace.overhead_ratio is 0 by construction"
        )
    return result


def _check_outputs(pool: list, first: Dict[int, object], result: Result) -> Dict[str, float]:
    """Differential verdicts for every compiled function, plus the quality numbers.

    Returns the deterministic values of the run: dynamic spill operations,
    normalised costs against Optimal and the work counts.
    """
    spill_ratios: List[float] = []
    spill_ops = 0
    edges = spilled = spill_instrs = loads = removed = 0
    costs: Dict[str, Dict[str, float]] = {}
    for index in sorted(first):
        context = first[index]
        function = pool[index]
        report = diff_functions(function, context.rewritten, max_steps=ORACLE_MAX_STEPS)
        if report.budget_exhausted:
            result.fail(f"pool function {index}: no verdict on {len(report.budget_exhausted)} input(s)")
            continue
        if not report.ok:
            result.fail(f"pool function {index} miscompiled: {report.describe(limit=1)}")
            continue
        overhead = report.spill_overhead
        executed = sum(before.steps for before, _ in report.pairs)
        operations = overhead["loads"] + overhead["stores"]
        spill_ops += operations
        spill_ratios.append(operations / executed)

        stats = context.stage_stats
        edges += stats["interference"]["edges"]
        spilled += stats["allocate"]["num_spilled"]
        loads += stats["spill_code"]["loads"]
        removed += stats["loadstore_opt"]["loads_removed"]
        spill_instrs += (
            stats["spill_code"]["loads"] + stats["spill_code"]["stores"]
            - stats["loadstore_opt"]["loads_removed"]
        )
        row = {ALLOCATOR: context.spill_cost}
        for name in ("Optimal",) + COMPARED:
            if name not in row:
                row[name] = get_allocator(name).allocate(context.problem).spill_cost
        for name in COMPARED:
            if row[name] < row["Optimal"] - 1e-9 * max(1.0, abs(row["Optimal"])):
                result.fail(f"pool function {index}: {name} cost {row[name]} below Optimal {row['Optimal']}")
        costs[str(index)] = row
    normalised = metrics.normalised_costs(costs) if costs else {}
    return {
        "spill_ops_dyn": metrics.mean(spill_ratios) if spill_ratios else 0.0,
        "spill_ops": float(spill_ops),
        "norm_cost.NL": normalised.get("NL", 0.0),
        "norm_cost.BFPL": normalised.get("BFPL", 0.0),
        "norm_cost.LH": normalised.get("LH", 0.0),
        "edges": float(edges),
        "spilled": float(spilled),
        "spill_instrs": float(spill_instrs),
        "loads_removed_ratio": metrics.ratio(removed, loads),
    }
