"""Plumbing shared by the workloads: the checkout, child processes, results.

The benchmark runs from the root of a source checkout of the repository and
drives the program from ``src/`` there — in this process (with ``src`` on
``sys.path``) or as ``python3 -m repro.cli`` children with ``PYTHONPATH=src``.
Working files live under ``.perfbench/`` in the checkout and are removed when
a run ends; only the determinism ledger stays there between runs.

Every time the benchmark reports is CPU time, not wall time.  The machines
it runs on are shared: a virtual CPU that the host takes away for a while
stretches wall time by as much, run to run, while the kernel leaves that
stolen time out of a process's CPU clock.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Optional, Sequence

#: working directory (relative to the checkout root) for stores, queues and
#: the determinism ledger.
STATE_DIR = ".perfbench"


class SetupError(RuntimeError):
    """The benchmark cannot run here (no program to measure, server died...)."""


@dataclass
class Checkout:
    """The source checkout the benchmark measures."""

    root: Path

    @classmethod
    def here(cls) -> "Checkout":
        root = Path.cwd().resolve()
        if not (root / "src" / "repro" / "__init__.py").is_file():
            raise SetupError(
                f"{root} holds no program to measure (src/repro is missing); "
                "run the benchmark from the root of a repository checkout"
            )
        return cls(root)

    @property
    def src(self) -> Path:
        return self.root / "src"

    def import_program(self) -> None:
        """Make ``import repro`` load this checkout's sources."""
        if str(self.src) not in sys.path:
            sys.path.insert(0, str(self.src))

    def child_env(self) -> Dict[str, str]:
        """Environment for ``python3 -m repro.cli`` children of this checkout."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.src)
        return env

    @contextlib.contextmanager
    def workdir(self, workload: str) -> Iterator[Path]:
        """A fresh working directory for one run, removed when the run ends."""
        path = self.root / STATE_DIR / f"run-{workload}-{os.getpid()}"
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        try:
            yield path
        finally:
            shutil.rmtree(path, ignore_errors=True)

    def source_digest(self) -> str:
        """Digest of the program's and the benchmark's Python sources (keys the ledger)."""
        digest = hashlib.sha256()
        for base in (self.src, Path(__file__).resolve().parent):
            for path in sorted(base.rglob("*.py")):
                digest.update(str(path.relative_to(base.parent)).encode())
                digest.update(path.read_bytes())
        return digest.hexdigest()[:16]


def cli_command(*args: str, probe: Optional[Path] = None) -> List[str]:
    """argv of one ``repro-alloc`` invocation from the checkout's sources.

    With ``probe``, the command runs under ``cli_probe.py``, which writes the
    seconds spent in each wrapped layer to that file when the command ends.
    """
    if probe is None:
        return [sys.executable, "-m", "repro.cli", *args]
    return [sys.executable, str(Path(__file__).with_name("cli_probe.py")), str(probe), *args]


def children_cpu_seconds() -> float:
    """CPU seconds of every descendant of this process reaped so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_timed(argv: Sequence[str], *, cwd: Path, env: Mapping[str, str], timeout: float = 120.0):
    """Run a child to completion; return ``(cpu_seconds, CompletedProcess)``.

    The CPU seconds are those of the child and of every process it started
    and waited for (a ``--jobs`` pool's workers, say).
    """
    started = children_cpu_seconds()
    completed = subprocess.run(
        list(argv), cwd=cwd, env=dict(env), capture_output=True, text=True, timeout=timeout
    )
    return children_cpu_seconds() - started, completed


class ProcessClock:
    """Reads the CPU seconds a running process has used, all its threads together."""

    def __init__(self, pid: int) -> None:
        libc = ctypes.CDLL(None, use_errno=True)
        clock = ctypes.c_int()
        if libc.clock_getcpuclockid(pid, ctypes.byref(clock)) != 0:
            raise SetupError(f"cannot read the CPU clock of process {pid}")
        self.clock_id = clock.value

    def __call__(self) -> float:
        return time.clock_gettime(self.clock_id)


def stop_process(process: subprocess.Popen, timeout: float = 20.0) -> None:
    """SIGTERM a child (gracefully), escalate to SIGKILL, and always reap it."""
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait(timeout=timeout)


def peak_rss_mb() -> float:
    """Peak resident set of this process and of every reaped descendant, MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def environment() -> Dict[str, str]:
    """The facts a reader needs to compare two traced runs."""
    try:
        from importlib.metadata import version

        scipy_version = version("scipy")
    except Exception:  # noqa: BLE001 - any lookup failure means "unknown"
        scipy_version = "unknown"
    return {
        "nproc": str(os.cpu_count() or 0),
        "python": platform.python_version(),
        "scipy": scipy_version,
        "machine": platform.machine(),
    }


@dataclass
class Result:
    """Outcome of one workload run: counts, failures and metric values."""

    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    #: end-to-end metric name -> value (reported with ``--trace 0``).
    end_to_end: Dict[str, float] = field(default_factory=dict)
    #: per-layer metric name -> value (reported with ``--trace 1``).
    layers: Dict[str, float] = field(default_factory=dict)
    #: facts printed beside the metrics, such as sample counts.
    notes: List[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failures.append(message)

    @property
    def failed(self) -> int:
        """Failed operations, never more than were attempted."""
        return min(len(self.failures), self.attempted)

    @property
    def ok_ratio(self) -> float:
        """Share of the attempted operations that succeeded."""
        return 1.0 - self.failed / self.attempted if self.attempted else 0.0


class DeterminismLedger:
    """Remembers the deterministic outputs of each ``(workload, seed)``.

    Entries are keyed by a digest of ``src/`` and of the benchmark's own
    sources too, so only the same code with the same seed is compared; a
    value that differs from the recorded one is a drift, which the caller
    reports as a failure.
    """

    def __init__(self, checkout: Checkout, workload: str, seed: int) -> None:
        self.path = checkout.root / STATE_DIR / "determinism.json"
        self.key = f"{workload}:{seed}:{checkout.source_digest()}"

    def check(self, values: Mapping[str, float]) -> List[str]:
        """Record ``values`` on first sight; return the names that drifted."""
        try:
            ledger = json.loads(self.path.read_text())
        except (OSError, ValueError):
            ledger = {}
        recorded: Optional[Dict[str, float]] = ledger.get(self.key)
        if recorded is None:
            ledger[self.key] = dict(values)
            self.path.parent.mkdir(parents=True, exist_ok=True)
            temporary = self.path.with_suffix(f".{os.getpid()}.tmp")
            temporary.write_text(json.dumps(ledger, sort_keys=True, indent=1))
            temporary.replace(self.path)
            return []
        return sorted(
            name
            for name, value in values.items()
            if name in recorded and recorded[name] != value
        )
