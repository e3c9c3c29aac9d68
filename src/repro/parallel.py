"""The process pool every parallel path in the package runs on.

:func:`run_tasks` maps a module-level ``worker`` over a list of picklable
tasks and yields ``(position, result)`` pairs:

* with ``jobs <= 1`` or at most one task it runs serially, in process, in
  task order — the worker records into the caller's ambient tracer;
* otherwise it sizes a :class:`~concurrent.futures.ProcessPoolExecutor` at
  ``min(jobs, len(tasks))``, submits one future per task and yields results
  as they complete, so a slow task never holds back a finished one.

Telemetry: when the caller's ambient tracer is enabled, each pooled task
runs under its own :class:`~repro.telemetry.Tracer` and ships the snapshot
back; once every task is done the snapshots merge into the caller's tracer
in task-position order, task ``i`` on lane ``worker-i``, so the combined
trace is deterministic whatever order the tasks finished in.

Callers that want a fixed number of workers rather than one task per item
deal their items into shards with :func:`round_robin` and pass the shards as
tasks (``Pipeline.run_many`` and ``run_campaign`` do; the experiment sweep
passes one task per instance for dynamic scheduling).
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor, as_completed
from typing import Callable, Dict, Iterator, List, Sequence, Tuple, TypeVar

from repro.telemetry.tracer import Tracer, TraceSnapshot, current_tracer, use_tracer

T = TypeVar("T")
R = TypeVar("R")


def round_robin(items: Sequence[T], jobs: int) -> List[List[T]]:
    """Deal ``items`` into ``min(jobs, len(items))`` shards (item ``i`` to shard ``i % n``)."""
    count = max(1, min(jobs, len(items)))
    shards: List[List[T]] = [[] for _ in range(count)]
    for position, item in enumerate(items):
        shards[position % count].append(item)
    return shards


def _traced(worker: Callable[[T], R], task: T) -> Tuple[R, TraceSnapshot]:
    """Pool-side trampoline: run one task under its own tracer."""
    tracer = Tracer()
    with use_tracer(tracer):
        result = worker(task)
    return result, tracer.snapshot()


def run_tasks(
    worker: Callable[[T], R], tasks: Sequence[T], jobs: int
) -> Iterator[Tuple[int, R]]:
    """Run ``worker`` on every task; yield ``(position, result)`` (see module docs)."""
    if jobs <= 1 or len(tasks) <= 1:
        for position, task in enumerate(tasks):
            yield position, worker(task)
        return

    tracer = current_tracer()
    snapshots: Dict[int, TraceSnapshot] = {}
    with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
        if tracer.enabled:
            futures = {
                pool.submit(_traced, worker, task): position
                for position, task in enumerate(tasks)
            }
        else:
            futures = {pool.submit(worker, task): position for position, task in enumerate(tasks)}
        for future in as_completed(futures):
            position = futures[future]
            result = future.result()
            if tracer.enabled:
                result, snapshots[position] = result
            yield position, result
    for position in sorted(snapshots):
        tracer.merge(snapshots[position], label=f"worker-{position}")
