"""What the metrics the benchmark reports mean.

``BENCHMARK.json`` is the one list of workloads and metrics, with each
metric's unit and direction; this module reads it and adds what that file
has no room for: the definition of each end-to-end metric on each workload,
and for each per-layer metric the end-to-end metrics it should move and the
workloads that exercise its layer.  A workload reports 0 for a layer it
bypasses.

Every time is CPU time scaled to the reference host (``speed.py``): "time"
below means that.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Mapping, Tuple

_SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

#: workload -> one-line reason (README.md says what each stresses and bypasses).
WORKLOADS: Dict[str, str] = {workload["name"]: workload["why"] for workload in _SPEC["workloads"]}
#: end-to-end metric -> unit.
END_TO_END: Dict[str, str] = {metric["name"]: metric["unit"] for metric in _SPEC["end_to_end"]}
#: per-layer metric -> unit.
PER_LAYER: Dict[str, str] = {metric["name"]: metric["unit"] for metric in _SPEC["per_layer"]}

#: what each end-to-end metric is on each workload.
DEFINITIONS: Dict[str, Dict[str, str]] = {
    "setup_s": {
        "compile": "median of 3 set-ups: generate the 200-function pool, compile 4 of them",
        "figure": "median of 3 set-ups: one repro-alloc process start, build both figure corpora",
        "service": "median of 3 set-ups: generate inputs, pre-warm half into a fresh store, start serve, "
        "one interactive job and one 6-cell batch (this process and the server)",
    },
    "ok_ratio": {
        "*": "1 - fail_ratio: operations that succeeded and passed every check / operations attempted",
    },
    "peak_rss_mb": {
        "*": "largest resident set of the benchmark process and of its program subprocesses",
        "service": "peak resident set of the serve process when the measured phases end",
    },
    "fn_per_s": {
        "compile": "functions compiled per second of compile time (each function's median compile)",
        "figure": "corpus functions per second of cold reproduce time (median over cycles)",
        "service": "interactive functions completed per second of service time (server + client, sent alone)",
    },
    "p50_ms": {
        "compile": "median over the pool of each function's median Pipeline.run time",
        "figure": "median allocator time per cell, every cell of both figures re-run in process",
        "service": "median service time (server + client) of an interactive job, submit to result",
    },
    "p95_ms": {
        "compile": "95th percentile of the functions' median Pipeline.run times",
        "figure": "95th percentile of allocator time per cell",
        "service": "95th percentile of the service time of an interactive job",
    },
    "sweep_cells_per_s": {
        "compile": "allocation cells per second of allocate-stage time (one cell per function)",
        "figure": "cells computed / time of the two cold reproduce commands (median over cycles)",
        "service": "sweep cells per second of service time (server + client), median over laps of "
        "five windows, one per size band",
    },
    "warm_s": {
        "compile": "compile time of one warm pass over the pool: sum of the functions' median times",
        "figure": "time of the two warm reproduce commands, process start to exit (median over cycles)",
        "service": "median service time of the pre-warmed (store hit) interactive functions",
    },
    "spill_ops_dyn": {
        "compile": "executed spill loads+stores per instruction the original executes, "
        "mean over the pool (differential interpreter)",
        "figure": "NL's spill cost per weighted variable access over figure9's cells "
        "(the static estimate of the same quantity)",
        "service": "as on compile, over the first 120 interactive functions",
    },
    "norm_cost.NL": {
        "compile": "mean NL cost / Optimal cost over the pool's problems",
        "figure": "mean of FigureResult.series['NL'] of figure9",
        "service": "mean NL cost (from the service) / Optimal cost over the first 120 interactive functions",
    },
    "norm_cost.BFPL": {
        "compile": "as norm_cost.NL, for BFPL",
        "figure": "mean of FigureResult.series['BFPL'] of figure9",
        "service": "as norm_cost.NL, for BFPL (allocated in process)",
    },
    "norm_cost.LH": {
        "compile": "as norm_cost.NL, for LH",
        "figure": "mean of FigureResult.series['LH'] of figure14",
        "service": "as norm_cost.NL, for LH (allocated in process)",
    },
}

_COMPILE = ("compile",)
_FIGURE = ("figure",)
_SERVICE = ("service",)
_ALL = ("compile", "figure", "service")

#: per-layer metric -> (end-to-end metrics it should move, workloads).
PER_LAYER_SPEC: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {
    "analysis.liveness_ms": (("p50_ms", "fn_per_s"), _COMPILE),
    "analysis.interference_ms": (("p50_ms", "fn_per_s"), _COMPILE),
    "pipeline.extract_ms": (("p50_ms", "fn_per_s"), _COMPILE),
    "alloc.allocate_ms": (("p95_ms",), _COMPILE),
    "alloc.assign_ms": (("p50_ms",), _COMPILE),
    "alloc.spill_code_ms": (("p50_ms",), _COMPILE),
    "alloc.loadstore_opt_ms": (("p50_ms",), _COMPILE),
    "check.verify_ms": (("p50_ms",), _COMPILE),
    "pipeline.residual_ms": (("p50_ms",), _COMPILE),
    "graphs.edges": (("spill_ops_dyn",), _COMPILE),
    "alloc.spilled": (("spill_ops_dyn",), _COMPILE),
    "alloc.spill_instrs": (("spill_ops_dyn",), _COMPILE),
    "alloc.loads_removed_ratio": (("spill_ops_dyn",), _COMPILE),
    "oracle.spill_ops": (("spill_ops_dyn",), _COMPILE),
    **{
        f"alloc.{name}_s": (("sweep_cells_per_s",), _FIGURE)
        for name in ("GC", "NL", "FPL", "BL", "BFPL", "Optimal", "LS", "BLS", "LH")
    },
    "store.put_s": (("sweep_cells_per_s",), ("figure", "service")),
    "store.flush_s": (("sweep_cells_per_s",), ("figure", "service")),
    "experiments.residual_s": (("sweep_cells_per_s",), _FIGURE),
    "cli.import_s": (("warm_s", "setup_s"), ("figure", "service")),
    "workloads.corpus_s": (("warm_s",), _FIGURE),
    "store.digest_s": (("warm_s",), _FIGURE),
    "store.get_s": (("warm_s",), _FIGURE),
    "experiments.render_s": (("warm_s",), _FIGURE),
    "store.hit_ratio": (("warm_s",), _FIGURE),
    "experiments.warm_residual_s": (("warm_s",), _FIGURE),
    "figure.cells": (("sweep_cells_per_s",), _FIGURE),
    "service.latency_ms": (("p50_ms",), _SERVICE),
    "service.submit_ms": (("p50_ms",), _SERVICE),
    "service.queue_wait_ms": (("p50_ms",), _SERVICE),
    "service.job_run_ms": (("p50_ms",), _SERVICE),
    **{
        f"service.pass.{stage}_ms": (("p50_ms",), _SERVICE)
        for stage in (
            "liveness", "interference", "extract", "allocate",
            "assign", "spill_code", "loadstore_opt", "verify",
        )
    },
    "service.poll_slack_ms": (("p50_ms",), _SERVICE),
    "service.polls_per_job": (("p50_ms",), _SERVICE),
    "service.cache_hit_ratio": (("p50_ms", "sweep_cells_per_s"), _SERVICE),
    "service.batch_ms": (("p50_ms", "sweep_cells_per_s"), _SERVICE),
    "service.residual_ms": (("p50_ms",), _SERVICE),
    "service.mixed_latency_ms": (("p50_ms",), _SERVICE),
    "service.mixed_queue_wait_ms": (("p50_ms",), _SERVICE),
    "trace.overhead_ratio": ((), _ALL),
}


def bypassed(workload: str) -> Tuple[str, ...]:
    """Per-layer metrics whose layer ``workload`` does not exercise."""
    return tuple(name for name, spec in PER_LAYER_SPEC.items() if workload not in spec[1])


def definition(metric: str, workload: str) -> str:
    meanings = DEFINITIONS[metric]
    return meanings.get(workload, meanings.get("*", ""))


def render(workload: str, names: Mapping[str, str], values: Mapping[str, float], traced: bool) -> str:
    """A human-readable table of one run's metrics."""
    lines = [f"workload {workload}: {WORKLOADS[workload]}"]
    skipped = bypassed(workload) if traced else ()
    for name, unit in names.items():
        if name in skipped:
            continue
        if traced:
            note = "moves " + (", ".join(PER_LAYER_SPEC[name][0]) or "-")
        else:
            note = definition(name, workload)
        lines.append(f"  {name:32s} {values[name]:>16.6g} {unit:6s}  {note}")
    if skipped:
        lines.append(f"  ({len(skipped)} per-layer metrics of bypassed layers reported as 0)")
    return "\n".join(lines)
