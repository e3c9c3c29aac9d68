"""The package's one process pool: ordering, serial fallback, trace lanes."""

from repro.parallel import round_robin, run_tasks
from repro.telemetry import Tracer, current_tracer, use_tracer


def _square(x):
    with current_tracer().span("task", category="test", x=x):
        return x * x


def test_round_robin_deals_at_most_jobs_shards():
    assert round_robin(list(range(5)), 2) == [[0, 2, 4], [1, 3]]
    assert round_robin([7], 4) == [[7]]
    assert round_robin([], 3) == [[]]


def test_serial_fallback_runs_in_task_order_in_the_callers_tracer():
    tracer = Tracer()
    with use_tracer(tracer):
        assert list(run_tasks(_square, [3, 1, 2], jobs=1)) == [(0, 9), (1, 1), (2, 4)]
    snapshot = tracer.snapshot()
    assert snapshot.lanes == {0: "main"}
    assert [event.attrs["x"] for event in snapshot.find("task")] == [3, 1, 2]


def test_pool_merges_worker_snapshots_by_task_position():
    tracer = Tracer()
    with use_tracer(tracer):
        results = dict(run_tasks(_square, [3, 1, 2], jobs=2))
    assert results == {0: 9, 1: 1, 2: 4}
    snapshot = tracer.snapshot()
    assert snapshot.lanes == {0: "main", 1: "worker-0", 2: "worker-1", 3: "worker-2"}
    assert [event.attrs["x"] for event in snapshot.find("task")] == [3, 1, 2]


def test_untraced_pool_returns_plain_results():
    assert sorted(run_tasks(_square, [4, 5], jobs=2)) == [(0, 16), (1, 25)]
