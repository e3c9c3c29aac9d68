"""Run one ``repro-alloc`` command with timers around its public layers.

Usage (from the checkout root, with ``PYTHONPATH=src``)::

    python3 perfbench/cli_probe.py OUT.json reproduce --figure figure9 ...

Behaves exactly like ``python3 -m repro.cli ...`` (same stdout, stderr and
exit code) and, when the command returns, writes to ``OUT.json`` how long
``import repro.cli`` took and the seconds spent in, and the calls made to,
each wrapped function: ``build_corpus``, ``problem_digest``,
``ExperimentStore.get_many``/``put_many``/``flush`` and the figure
renderers.  Nothing inside the program changes; the timers wrap the
functions from the outside, the way a profiler's probes would.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402

import repro.cli  # noqa: E402

IMPORT_SECONDS = time.perf_counter() - _STARTED


class Timers:
    """Thread-safe accumulated seconds and call counts per layer name."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.seconds: dict = {}
        self.calls: dict = {}

    def wrap(self, name: str, function):
        def timed(*args, **kwargs):
            started = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                with self._lock:
                    self.seconds[name] = self.seconds.get(name, 0.0) + elapsed
                    self.calls[name] = self.calls.get(name, 0) + 1

        timed.__wrapped__ = function
        return timed


def install(timers: Timers) -> None:
    """Wrap the program's public layer entry points with ``timers``."""
    from repro.experiments import figures, runner
    from repro.store.base import ExperimentStore

    repro.cli.build_corpus = timers.wrap("workloads.corpus", repro.cli.build_corpus)
    runner.problem_digest = timers.wrap("store.digest", runner.problem_digest)
    for method in ("get_many", "put_many", "flush"):
        name = "store." + method.replace("_many", "")
        setattr(ExperimentStore, method, timers.wrap(name, getattr(ExperimentStore, method)))
    for figure, render in list(figures.ALL_FIGURES.items()):
        figures.ALL_FIGURES[figure] = timers.wrap("experiments.render", render)


def main(argv) -> int:
    out_path, cli_args = argv[0], argv[1:]
    timers = Timers()
    install(timers)
    try:
        code = repro.cli.main(cli_args)
    finally:
        with open(out_path, "w") as handle:
            json.dump(
                {
                    "import_s": IMPORT_SECONDS,
                    "wall_s": time.perf_counter() - _STARTED,
                    "seconds": timers.seconds,
                    "calls": timers.calls,
                },
                handle,
                sort_keys=True,
            )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
