"""``figure``: the paper's experiment, run the way a user runs it.

One cycle is four ``repro-alloc reproduce`` processes against a fresh store:
``figure9`` (eembc on st231: GC NL FPL BL BFPL Optimal) and ``figure14``
(specjvm98: LS BLS GC LH Optimal) cold, with ``--jobs 2``, then the same two
commands warm.  Cycles repeat until the time is up and the metrics are
medians over cycles.

The cold phase is allocator- and store-write-bound and covers the chordal
and the off-chordal (LH) families plus the pool executor.  The warm phase
makes no allocator call, so it isolates CLI start-up, corpus build, digest,
store reads and rendering.  Bypasses the pass pipeline's IR stages and the
service.

A command's time is the CPU time of its process tree (see ``common.py``),
scaled by reference loops timed just before and after it (``speed.py``).
The per-cell latencies are taken after the cycles: every cell of both
figures, on corpora of scale ``CELL_SCALE``, is allocated in this process in
the runner's order, timed on the thread's CPU clock and scaled the same way.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, List, Tuple

from repro.alloc import get_allocator
from repro.experiments.figures import ALL_FIGURES, FIGURE_SPECS
from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.store import open_store
from repro.workloads.corpus import build_corpus

from perfbench import metrics
from perfbench.common import (
    Checkout,
    DeterminismLedger,
    Result,
    children_cpu_seconds,
    cli_command,
    peak_rss_mb,
    run_timed,
)
from perfbench.speed import HostSpeed

FIGURES = ("figure9", "figure14")
#: corpus scale of both figures (figure9: 14 functions x 36 cells, figure14:
#: 9 functions x 40 cells).
SCALE = 0.25
#: corpus scale of the in-process cell timing: twice the figures' cells, so
#: that the median cell does not hang on a few seeded functions.
CELL_SCALE = 0.5
JOBS = 2
SETUP_REPEATS = 3
#: reference loops timed before and after each command.
REFERENCE_SAMPLES = 5
#: cells timed between two reference loops.
CELLS_PER_SAMPLE = 8
#: allocators whose normalised cost is reported, and the figure that has it.
NORM_COST = (("NL", "figure9"), ("BFPL", "figure9"), ("LH", "figure14"))
ALLOCATORS = ("GC", "NL", "FPL", "BL", "BFPL", "Optimal", "LS", "BLS", "LH")
#: probe layers summed into the residuals.
COLD_LAYERS = ("workloads.corpus", "store.digest", "store.get", "store.put", "store.flush", "experiments.render")
WARM_LAYERS = ("workloads.corpus", "store.digest", "store.get", "experiments.render")


class Cycle:
    """The four commands of one cold + warm cycle and what they printed."""

    def __init__(self, directory: Path) -> None:
        self.store = directory / "store.sqlite"
        #: CPU seconds of each command's process tree, scaled to the reference host.
        self.seconds: Dict[Tuple[str, str], float] = {}
        self.stdout: Dict[Tuple[str, str], str] = {}
        self.probes: Dict[Tuple[str, str], dict] = {}
        #: the store's records and run manifests once the cycle is checked.
        self.records: list = []
        self.manifests: list = []

    @property
    def cold_s(self) -> float:
        return sum(self.seconds[("cold", figure)] for figure in FIGURES)

    @property
    def warm_s(self) -> float:
        return sum(self.seconds[("warm", figure)] for figure in FIGURES)


def _reproduce_argv(figure: str, store: Path, seed: int) -> List[str]:
    return [
        "reproduce", "--figure", figure, "--store", str(store),
        "--scale", str(SCALE), "--jobs", str(JOBS), "--seed", str(seed),
    ]


def _run_cycle(
    checkout: Checkout, directory: Path, seed: int, traced: bool, result: Result, speed: HostSpeed
) -> Cycle:
    directory.mkdir(parents=True)
    cycle = Cycle(directory)
    env = checkout.child_env()
    for phase in ("cold", "warm"):
        for figure in FIGURES:
            probe = directory / f"{phase}-{figure}.probe.json" if traced else None
            argv = cli_command(*_reproduce_argv(figure, cycle.store, seed), probe=probe)
            speed.sample(REFERENCE_SAMPLES)
            started = time.perf_counter()
            seconds, completed = run_timed(argv, cwd=checkout.root, env=env)
            ended = time.perf_counter()
            speed.sample(REFERENCE_SAMPLES)
            result.attempted += 1
            cycle.seconds[(phase, figure)] = speed.scale(seconds, started, ended)
            cycle.stdout[(phase, figure)] = completed.stdout
            if completed.returncode != 0:
                result.fail(f"{phase} reproduce {figure} exited {completed.returncode}: {completed.stderr.strip()[-300:]}")
            if probe is not None:
                cycle.probes[(phase, figure)] = json.loads(probe.read_text())
    return cycle


def run(checkout: Checkout, seed: int, seconds: float, trace: bool) -> Result:
    with checkout.workdir("figure") as workdir:
        return _run(checkout, workdir, seed, seconds, trace)


def _run(checkout: Checkout, workdir: Path, seed: int, seconds: float, trace: bool) -> Result:
    result = Result()
    env = checkout.child_env()

    # -- set-up: a CLI process start and the figures' corpora, several times  #
    speed = HostSpeed()
    setups: List[Tuple[float, float, float]] = []
    for _ in range(SETUP_REPEATS):
        speed.sample(REFERENCE_SAMPLES)
        started, started_wall = time.process_time() + children_cpu_seconds(), time.perf_counter()
        _, completed = run_timed(cli_command("list"), cwd=checkout.root, env=env)
        if completed.returncode != 0:
            result.fail(f"repro-alloc list exited {completed.returncode}")
        corpora = {
            figure: build_corpus(
                FIGURE_SPECS[figure].suite, target=FIGURE_SPECS[figure].target, seed=seed, scale=SCALE
            )
            for figure in FIGURES
        }
        setups.append((time.process_time() + children_cpu_seconds() - started, started_wall, time.perf_counter()))
    speed.sample(REFERENCE_SAMPLES)

    # -- timed cycles ------------------------------------------------------- #
    cycles: List[Cycle] = []
    deadline = time.perf_counter() + seconds
    while not cycles or time.perf_counter() < deadline or (trace and len(cycles) < 2):
        traced = trace and len(cycles) % 2 == 0
        cycles.append(_run_cycle(checkout, workdir / f"cycle-{len(cycles)}", seed, traced, result, speed))
    # Before the cell timing and the checks, which allocate in this process.
    rss = peak_rss_mb()
    cell_latencies = _time_cells(
        {
            figure: build_corpus(
                FIGURE_SPECS[figure].suite, target=FIGURE_SPECS[figure].target, seed=seed, scale=CELL_SCALE
            )
            for figure in FIGURES
        },
        speed,
    )

    # -- checks and quality numbers (outside the timed region) ------------- #
    quality, cold_cells = _check(cycles, corpora, result)
    for name in DeterminismLedger(checkout, "figure", seed).check(quality):
        result.fail(f"deterministic metric {name} drifted from the value recorded for seed {seed}")

    instances = sum(len(corpora[figure]) for figure in FIGURES)
    cold_times = [cycle.cold_s for cycle in cycles]
    latency = metrics.summarize_latencies(cell_latencies)
    result.notes.append(
        f"{len(cycles)} cycles; p50/p95 over {len(cell_latencies)} cells timed in process; "
        f"throughput and warm_s are medians over cycles; "
        f"reference loop {speed.reference_ms():.3f} ms (median of {len(speed)})"
    )
    result.end_to_end = {
        "setup_s": metrics.median([speed.scale(cpu, start, end) for cpu, start, end in setups]),
        "ok_ratio": result.ok_ratio,
        "peak_rss_mb": rss,
        "fn_per_s": metrics.median([instances / t for t in cold_times]),
        "p50_ms": latency["p50_ms"],
        "p95_ms": latency["p95_ms"],
        "sweep_cells_per_s": metrics.median([cold_cells / t for t in cold_times]),
        "warm_s": metrics.median([cycle.warm_s for cycle in cycles]),
        "spill_ops_dyn": quality["spill_ops_dyn"],
        **{f"norm_cost.{name}": quality[f"norm_cost.{name}"] for name, _ in NORM_COST},
    }
    if trace:
        result.layers = _layers(cycles, quality)
    return result


def _time_cells(corpora: dict, speed: HostSpeed) -> List[float]:
    """CPU seconds of every cell of both figures, allocated the way the runner does.

    One allocator instance per name and problem, cells in the runner's
    order (register count, then allocator), so the first cell on a problem
    builds the derived structures the later ones share.
    """
    timed: List[Tuple[float, float, float]] = []
    speed.sample(REFERENCE_SAMPLES)
    for figure in FIGURES:
        spec = FIGURE_SPECS[figure]
        for problem in corpora[figure]:
            allocators = {name: get_allocator(name) for name in spec.allocators}
            for registers in spec.register_counts:
                instance = problem.with_registers(registers)
                for name in spec.allocators:
                    started, started_wall = time.thread_time(), time.perf_counter()
                    allocators[name].allocate(instance)
                    timed.append((time.thread_time() - started, started_wall, time.perf_counter()))
                    if len(timed) % CELLS_PER_SAMPLE == 0:
                        speed.sample()
    speed.sample(REFERENCE_SAMPLES)
    return [speed.scale(cpu, start, end) for cpu, start, end in timed]


def _check(cycles: List[Cycle], corpora: dict, result: Result):
    """Judge every cycle; return the deterministic quality numbers.

    * cold and warm stdout of each figure are byte-identical, and every
      cycle prints the same figures;
    * the warm manifests computed no cell;
    * no heuristic cell is cheaper than Optimal's;
    * the figures re-rendered in process from the warm store equal the
      CLI's stdout — their ``series`` give the normalised costs.
    """
    reference = cycles[0]
    cold_cells = 0
    for number, cycle in enumerate(cycles):
        for figure in FIGURES:
            if cycle.stdout[("cold", figure)] != cycle.stdout[("warm", figure)]:
                result.fail(f"cycle {number}: cold and warm {figure} output differ")
            if cycle.stdout[("cold", figure)] != reference.stdout[("cold", figure)]:
                result.fail(f"cycle {number}: {figure} output differs from cycle 0")
        with open_store(cycle.store) as store:
            manifests = store.manifests()
            records = store.records()
        if len(manifests) != 2 * len(FIGURES):
            result.fail(f"cycle {number}: {len(manifests)} run manifests, expected {2 * len(FIGURES)}")
            continue
        cold, warm = manifests[: len(FIGURES)], manifests[len(FIGURES):]
        for manifest in warm:
            if manifest.cells_computed != 0:
                result.fail(f"cycle {number}: warm {manifest.suite} computed {manifest.cells_computed} cells")
        cells = sum(manifest.cells_computed for manifest in cold)
        if number == 0:
            cold_cells = cells
        elif cells != cold_cells:
            result.fail(f"cycle {number}: cold phase computed {cells} cells, cycle 0 computed {cold_cells}")
        _check_optimal_bound(records, number, result)
        cycle.records, cycle.manifests = records, manifests

    quality: Dict[str, float] = {"cells": float(cold_cells)}
    with open_store(reference.store) as store:
        for figure in FIGURES:
            spec = FIGURE_SPECS[figure]
            config = ExperimentConfig(
                allocators=list(spec.allocators), register_counts=list(spec.register_counts)
            )
            records = run_experiment(corpora[figure], config, store=store)
            figure_result = ALL_FIGURES[figure](records=records)
            if figure_result.rendered + "\n" != reference.stdout[("cold", figure)]:
                result.fail(f"{figure} rendered in process differs from the CLI's output")
            for name, source in NORM_COST:
                if source == figure:
                    quality[f"norm_cost.{name}"] = metrics.norm_cost(figure_result.series, name)
            if figure == "figure9":
                quality["spill_ops_dyn"] = _estimated_spill_ops(corpora[figure], records)
    return quality, cold_cells


def _check_optimal_bound(records, number: int, result: Result) -> None:
    optimum = {
        (record.instance, record.num_registers): record.spill_cost
        for record in records
        if record.allocator == "Optimal"
    }
    for record in records:
        best = optimum.get((record.instance, record.num_registers))
        if best is not None and record.spill_cost < best - 1e-9 * max(1.0, abs(best)):
            result.fail(
                f"cycle {number}: {record.allocator} beats Optimal on {record.instance} "
                f"R={record.num_registers} ({record.spill_cost} < {best})"
            )


def _estimated_spill_ops(corpus, records) -> float:
    """NL's spill cost as a share of all variables' weighted accesses.

    A variable's weight is its frequency-weighted count of definitions and
    uses, so the spill cost is the static estimate of the spill loads and
    stores the allocation makes the program execute.
    """
    weight = {problem.name: problem.total_weight for problem in corpus}
    spilled = sum(record.spill_cost for record in records if record.allocator == "NL")
    total = sum(weight[record.instance] for record in records if record.allocator == "NL")
    return metrics.ratio(spilled, total)


def _layers(cycles: List[Cycle], quality: Dict[str, float]) -> Dict[str, float]:
    """Per-layer seconds of the traced cycles, medians over cycles."""
    traced = [cycle for cycle in cycles if cycle.probes]
    untraced = [cycle for cycle in cycles if not cycle.probes]
    per_cycle: Dict[str, List[float]] = {}

    def add(name: str, value: float) -> None:
        per_cycle.setdefault(name, []).append(value)

    for cycle in traced:
        def total(layer: str, phases=("cold", "warm")) -> float:
            return sum(
                cycle.probes[(phase, figure)]["seconds"].get(layer, 0.0)
                for phase in phases
                for figure in FIGURES
            )

        alloc = {name: 0.0 for name in ALLOCATORS}
        for record in cycle.records:
            alloc[record.allocator] = alloc.get(record.allocator, 0.0) + record.runtime_seconds
        for name in ALLOCATORS:
            add(f"alloc.{name}_s", alloc[name])
        imports = {phase: sum(cycle.probes[(phase, f)]["import_s"] for f in FIGURES) for phase in ("cold", "warm")}
        add("cli.import_s", imports["cold"] + imports["warm"])
        add("workloads.corpus_s", total("workloads.corpus"))
        add("store.digest_s", total("store.digest"))
        add("store.get_s", total("store.get"))
        add("store.put_s", total("store.put"))
        add("store.flush_s", total("store.flush"))
        add("experiments.render_s", total("experiments.render"))
        cold_layers = imports["cold"] + sum(total(layer, ("cold",)) for layer in COLD_LAYERS)
        add(
            "experiments.residual_s",
            metrics.residual(cycle.cold_s, [cold_layers, sum(alloc.values())]),
        )
        warm_layers = imports["warm"] + sum(total(layer, ("warm",)) for layer in WARM_LAYERS)
        add("experiments.warm_residual_s", metrics.residual(cycle.warm_s, [warm_layers]))

    layers = {name: metrics.median(values) for name, values in per_cycle.items()}
    warm = [manifest for cycle in traced for manifest in cycle.manifests[len(FIGURES):]]
    layers["store.hit_ratio"] = metrics.ratio(
        sum(m.cells_cached for m in warm), sum(m.cells_total for m in warm)
    )
    layers["trace.overhead_ratio"] = (
        metrics.median([c.cold_s + c.warm_s for c in traced])
        / metrics.median([c.cold_s + c.warm_s for c in untraced])
        - 1.0
    )
    layers["figure.cells"] = quality["cells"]
    return layers
