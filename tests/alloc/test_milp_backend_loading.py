"""When the MILP backend (numpy + scipy) loads, and what runs without it.

``repro.alloc.optimal_ilp`` imports scipy on the first solve, and a pooled
run (sweep, ``Pipeline.run_many``, oracle campaign) with MILP cells loads it
once in the parent before forking.  Every check here runs in
a fresh interpreter, because this test process has long since imported
scipy; the no-scipy cases block it with ``sys.modules["scipy"] = None``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.alloc.optimal_ilp import solve_ilp
from repro.cli import main
from repro.graphs.io import dump_graph

SRC = Path(repro.__file__).resolve().parents[1]
FIGURE9_SMALL = ["reproduce", "--figure", "figure9", "--scale", "0.1", "--max-instances", "3"]
BLOCK_SCIPY = "import sys\nsys.modules['scipy'] = None\n"
#: prints which of numpy/scipy the subprocess has imported, as a JSON list.
LOADED = "print(json.dumps(sorted(m for m in ('numpy', 'scipy') if m in sys.modules)))"


def run_python(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports this checkout's ``repro``."""
    paths = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        check=False,
    )


def last_json_line(process: subprocess.CompletedProcess):
    assert process.returncode == 0, process.stderr
    return json.loads(process.stdout.strip().splitlines()[-1])


def test_importing_the_cli_loads_no_milp_backend():
    process = run_python(f"import json, sys\nimport repro.cli\n{LOADED}")
    assert last_json_line(process) == []


def test_warm_reproduce_loads_no_milp_backend(tmp_path, capsys):
    argv = [*FIGURE9_SMALL, "--store", str(tmp_path / "cells.sqlite")]
    assert main(argv) == 0
    cold = capsys.readouterr().out
    process = run_python(
        f"""
        import json, sys
        from repro.cli import main
        assert main({argv!r}) == 0
        {LOADED}
        """
    )
    assert process.returncode == 0, process.stderr
    assert "computed=0" in process.stderr
    assert process.stdout == cold + "[]\n"


#: each pooled entry point: (module whose ``run_tasks`` forks, code that runs
#: it at ``jobs=2`` with the allocator named ``ALLOCATOR``).
POOLED_RUNS = {
    "sweep": (
        "repro.experiments.backends",
        """
        from repro.alloc.problem import AllocationProblem
        from repro.experiments.runner import ExperimentConfig, run_experiment
        from repro.graphs.generators import random_chordal_graph
        problems = [
            AllocationProblem(graph=random_chordal_graph(12, rng=seed), num_registers=2, name=f"p{seed}")
            for seed in (1, 2)
        ]
        run_experiment(problems, ExperimentConfig(allocators=[ALLOCATOR], register_counts=[2], jobs=2))
        """,
    ),
    "run_many": (
        "repro.pipeline.engine",
        """
        from repro.pipeline import Pipeline
        from repro.workloads.programs import GeneratorProfile, generate_function
        functions = [generate_function(f"f{seed}", GeneratorProfile(statements=20), rng=seed) for seed in (1, 2)]
        Pipeline.from_spec(ALLOCATOR, target="st231", registers=4).run_many(functions, jobs=2)
        """,
    ),
    "campaign": (
        "repro.oracle.campaign",
        """
        from repro.oracle.campaign import CampaignConfig, run_campaign
        run_campaign(CampaignConfig(count=2, allocators=(ALLOCATOR,), targets=("st231",), jobs=2))
        """,
    ),
}


@pytest.mark.parametrize("entry", sorted(POOLED_RUNS))
@pytest.mark.parametrize("allocator, preloaded", [("Optimal", True), ("NL", False)])
def test_pooled_runs_preload_milp_backend_only_for_milp_cells(entry, allocator, preloaded):
    module, run = POOLED_RUNS[entry]
    process = run_python(
        textwrap.dedent(
            f"""
            import importlib, json, sys

            pooled = importlib.import_module({module!r})
            seen = []
            run_tasks = pooled.run_tasks

            def recording_run_tasks(worker, tasks, jobs):
                seen.append("scipy.optimize" in sys.modules)
                return run_tasks(worker, tasks, jobs)

            pooled.run_tasks = recording_run_tasks
            ALLOCATOR = {allocator!r}
            """
        )
        + textwrap.dedent(run)
        + "print(json.dumps(seen))\n"
    )
    assert last_json_line(process) == [preloaded]


def test_without_scipy_optimal_falls_back_to_branch_and_bound(
    tmp_path, figure2_graph, figure4_graph, figure7_graph
):
    graphs = {"figure2": figure2_graph, "figure4": figure4_graph, "figure7": figure7_graph}
    for name, graph in graphs.items():
        dump_graph(graph, tmp_path / f"{name}.json")
    process = run_python(
        BLOCK_SCIPY
        + f"""
import json
from repro.alloc import get_allocator
from repro.alloc.optimal_ilp import scipy_available
from repro.alloc.problem import AllocationProblem
from repro.errors import SolverUnavailableError
from repro.graphs.io import load_graph

report = {{"available": scipy_available(), "optimal": {{}}, "ilp_errors": []}}
for name in {sorted(graphs)!r}:
    graph = load_graph({str(tmp_path)!r} + "/" + name + ".json")
    for registers in (1, 2, 3):
        problem = AllocationProblem(graph=graph, num_registers=registers)
        result = get_allocator("Optimal").allocate(problem)
        report["optimal"][f"{{name}}/{{registers}}"] = [result.stats["backend"], result.spill_cost]
        try:
            get_allocator("Optimal-ILP").allocate(problem)
        except SolverUnavailableError as error:
            report["ilp_errors"].append(type(error).__name__)
print(json.dumps(report))
"""
    )
    report = last_json_line(process)
    assert report["available"] is False
    assert report["ilp_errors"] == ["SolverUnavailableError"] * 9
    for name, graph in graphs.items():
        for registers in (1, 2, 3):
            _, allocated_weight = solve_ilp(graph, registers)
            backend, cost = report["optimal"][f"{name}/{registers}"]
            assert backend == "branch-and-bound"
            assert cost == pytest.approx(graph.total_weight() - allocated_weight)


def test_without_scipy_cli_optimal_ilp_is_a_clean_domain_error(tmp_path, figure4_graph):
    path = tmp_path / "figure4.json"
    dump_graph(figure4_graph, path)
    argv = ["allocate", "--input", str(path), "--allocator", "Optimal-ILP", "--registers", "2"]
    process = run_python(
        BLOCK_SCIPY + f"from repro.cli import main\nsys.exit(main({argv!r}))\n"
    )
    assert process.returncode == 1
    assert "Traceback" not in process.stderr
    lines = process.stderr.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("repro-alloc: error:")
    assert "scipy" in lines[0]
