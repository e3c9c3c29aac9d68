"""``service``: ``repro-alloc serve --workers 2`` under two closed-loop clients.

* ``interactive`` submits single 60-statement functions (oracle ``medium``
  profile; NL on st231 with R=8) with ``ServiceClient.submit`` and waits
  with ``ServiceClient.wait``'s default poll schedule.  Half of the
  functions (the even-numbered ones) were pre-warmed into the store during
  set-up, so the store serves hits as well as misses.
* ``sweep`` calls ``ServiceBackend.run_plan`` — the backend behind
  ``reproduce --backend service`` and ``sweep --backend service`` — with
  its defaults, on one-problem windows of a plan with figure9's cells
  (GC NL FPL BL BFPL Optimal x its six register counts = 36 cells), which
  the backend posts as a 32-cell and a 4-cell ``/v1/batches`` job (live
  intervals included) before it polls either.  The problems are seeded
  oracle functions of fixed size bands (``SweepInputs``).  Its client caps
  the poll interval at ``SWEEP_MAX_POLL``, so a finished batch is seen
  within about 0.1 s.

Both clients block on every reply (closed loop), as every real caller does.
The interactive client runs alone for ``INTERACTIVE_SHARE`` of the run and
the sweep alone for the rest, so that the CPU time the server and this
process use in a phase belongs to that phase's jobs: a job's service time
is that CPU time, scaled to the reference host (``speed.py``).  Exercises
the HTTP layer, the queue, the workers, the polling and the store; alone
among the workloads it shows a warm-path or cache change.

A traced run splits its time between an unprobed server and one running
under ``cli_probe.py``, each with a fresh store, and reports the service
time ratio of the same interactive jobs on the two as
``trace.overhead_ratio``.  The probed server then also runs both clients
side by side, so that interactive jobs queue beside the sweep's batches
(per-client fairness); their wall latency and queue wait are per-layer
metrics.
"""
from __future__ import annotations

import json
import random
import subprocess
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.alloc import get_allocator
from repro.errors import ServiceError
from repro.experiments.backends import ServiceBackend
from repro.experiments.figures import FIGURE_SPECS
from repro.experiments.runner import ExperimentConfig
from repro.ir.parser import parse_module
from repro.ir.printer import print_function
from repro.oracle.differential import diff_functions
from repro.oracle.generator import generate_program
from repro.pipeline import Pipeline, PipelineSpec
from repro.service.api import deterministic_summary, normalize_submission, submission_problems
from repro.service.client import ServiceClient

from perfbench import metrics
from perfbench.common import (
    Checkout,
    DeterminismLedger,
    ProcessClock,
    Result,
    SetupError,
    children_cpu_seconds,
    cli_command,
    stop_process,
)
from perfbench.speed import HostSpeed

#: interactive functions generated per run (half of them pre-warmed).
INTERACTIVE_POOL = 200
ALLOCATOR, TARGET, REGISTERS = "NL", "st231", 8
#: the figure whose allocators and register counts the sweep client's plan
#: has, the oracle profile of its problems, and its problems per window.
SWEEP_FIGURE = "figure9"
SWEEP_PROFILE = "small"
WINDOW = 1
#: the sweep's functions are numbered from here, apart from the interactive pool.
SWEEP_FIRST = 1_000_000
#: variables in the problem of each window, by window number modulo their
#: count: every run sweeps the same mix of sizes.
SIZE_BANDS = ((48, 56), (56, 64), (64, 72), (72, 80), (80, 88))
#: functions tried per window for one whose problem fits its band.
CANDIDATES = 10_000
#: the quality metrics are computed on the first interactive functions;
#: every session submits at least these many.
ORACLE_FUNCTIONS = 120
#: allocators whose cost on those functions is normalised against Optimal's.
COMPARED = ("Optimal", "NL", "BFPL", "LH")
#: share of a session the interactive client runs alone; the sweep runs
#: alone for the rest.
INTERACTIVE_SHARE = 0.7
#: a traced run's probed session then runs both clients side by side for
#: this share of its length more.
MIXED_SHARE = 0.5
#: the sweep polls its batches at least this often (ServiceClient.wait's
#: default interval grows to 2 s; see README.md).
SWEEP_MAX_POLL = 0.1
_SWEEP_SPEC = FIGURE_SPECS[SWEEP_FIGURE]
SWEEP_CONFIG = ExperimentConfig(
    allocators=list(_SWEEP_SPEC.allocators), register_counts=list(_SWEEP_SPEC.register_counts)
)
#: the cells of one problem, in the order the runner plans them.
SWEEP_CELLS = [(registers, name) for registers in _SWEEP_SPEC.register_counts for name in _SWEEP_SPEC.allocators]
ORACLE_MAX_STEPS = 400_000
SETUP_REPEATS = 3
#: reference loops timed before and after each set-up and sweep window.
REFERENCE_SAMPLES = 5
STAGES = ("liveness", "interference", "extract", "allocate", "assign", "spill_code", "loadstore_opt", "verify")


class CountingClient(ServiceClient):
    """A ``ServiceClient`` that counts its job polls."""

    polls = 0

    def job(self, job_id: str):
        self.polls += 1
        return super().job(job_id)


class SweepClient(ServiceClient):
    """The sweep's client: keeps each batch ``ServiceBackend`` posts and its final job."""

    def __init__(self, url: str) -> None:
        super().__init__(url)
        self.window = 0
        self.batches: List[dict] = []
        self._by_id: Dict[str, dict] = {}

    def submit_batch(self, body):
        response = super().submit_batch(body)
        batch = {"window": self.window, "body": body, "job": None}
        self.batches.append(batch)
        self._by_id[response["job"]["id"]] = batch
        return response

    def wait(self, job_id: str, **options):
        final = super().wait(job_id, max_poll=SWEEP_MAX_POLL, **options)
        self._by_id[job_id]["job"] = final
        return final


class Server:
    """One ``repro-alloc serve`` child process (optionally under the probe)."""

    def __init__(self, checkout: Checkout, directory: Path, probe: bool) -> None:
        self.log = directory / "serve.log"
        self.probe_path = directory / "serve.probe.json" if probe else None
        argv = cli_command(
            "serve", "--store", str(directory / "store.sqlite"), "--port", "0", "--workers", "2",
            probe=self.probe_path,
        )
        self._log_handle = open(self.log, "w")
        self.process = subprocess.Popen(
            argv, cwd=checkout.root, env=checkout.child_env(),
            stdout=subprocess.DEVNULL, stderr=self._log_handle,
        )
        #: CPU seconds the server has used so far.
        self.cpu = ProcessClock(self.process.pid)
        self.url = self._await_url()

    def _await_url(self, timeout: float = 60.0) -> str:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            for line in self.log.read_text().splitlines():
                if line.startswith("serving on "):
                    return line.split()[2]
            if self.process.poll() is not None:
                raise SetupError(f"repro-alloc serve exited {self.process.returncode}: {self.log.read_text()[-500:]}")
            time.sleep(0.01)
        self.stop()
        raise SetupError("repro-alloc serve did not report its address within 60 s")

    def peak_rss_mb(self) -> float:
        """The server's peak resident set so far (``VmHWM``), MiB."""
        for line in Path(f"/proc/{self.process.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise SetupError("the server's /proc status has no VmHWM line")

    def stop(self) -> Optional[dict]:
        """Drain and stop the server; return the probe's record, if any."""
        stop_process(self.process)
        self._log_handle.close()
        if self.probe_path is not None and self.probe_path.exists():
            return json.loads(self.probe_path.read_text())
        return None


@dataclass
class Session:
    """What the clients saw against one server."""

    server: Server
    inputs: List[tuple]
    stream: "SweepInputs"
    speed: HostSpeed
    #: interactive jobs of the alone phase, each with its CPU cost.
    interactive: List[dict] = field(default_factory=list)
    #: interactive jobs sent beside the sweep (traced runs only).
    mixed: List[dict] = field(default_factory=list)
    #: every batch the sweep posted: its window, body and final job.
    batches: List[dict] = field(default_factory=list)
    #: (cells, CPU seconds) of every sweep window of the alone phase.
    windows: List[Tuple[int, float]] = field(default_factory=list)
    #: the server's peak resident set when the alone phases ended, MiB.
    peak_rss_mb: float = 0.0
    errors: List[str] = field(default_factory=list)
    stats_before: dict = field(default_factory=dict)
    stats_after: dict = field(default_factory=dict)
    probe: Optional[dict] = None
    #: interactive functions sent so far (the next one's number).
    sent: int = 0
    #: sweep windows run so far.
    swept: int = 0

    def cpu(self) -> float:
        """CPU seconds used so far by the server and by this process."""
        return self.server.cpu() + time.process_time()

    def interactive_job(self, client: "CountingClient") -> Optional[dict]:
        """Send the next interactive function and wait for it; None on a service error.

        Each function is sent once per lap; a later lap (only reached by a
        much faster service) uses one register fewer, so it is new work
        rather than a deduplicated resubmission.
        """
        number = self.sent
        self.sent += 1
        lap, index = divmod(number, INTERACTIVE_POOL)
        function, text = self.inputs[index]
        polls = client.polls
        try:
            cpu = self.cpu()
            t0 = time.perf_counter()
            job = client.submit(_interactive_body(function.name, text, REGISTERS - lap))["job"]
            t1 = time.perf_counter()
            final = client.wait(job["id"])
            t2, t2_epoch = time.perf_counter(), time.time()
            cpu = self.cpu() - cpu
        except ServiceError as error:
            self.errors.append(f"interactive {number}: {error}")
            return None
        self.speed.sample()
        return {
            "index": index, "registers": REGISTERS - lap,
            "warm": lap == 0 and index % 2 == 0,
            "raw_cpu": cpu, "start": t0, "end": t2,
            "latency": t2 - t0, "submit": t1 - t0, "t2": t2_epoch,
            "polls": client.polls - polls, "job": final,
        }

    def sweep_window(self, backend: ServiceBackend, recorder: "SweepClient") -> Optional[Tuple[int, float]]:
        """Run the next window of the sweep's plan; ``(cells, scaled CPU seconds)``, None on error."""
        window = self.swept
        self.swept += 1
        recorder.window = window
        problems = [self.stream.problem(window * WINDOW + k) for k in range(WINDOW)]
        plan = [(window * WINDOW + k, problem, problem.name, list(SWEEP_CELLS)) for k, problem in enumerate(problems)]
        self.speed.sample(REFERENCE_SAMPLES)
        cpu, started = self.cpu(), time.perf_counter()
        try:
            backend.run_plan(plan, SWEEP_CONFIG, lambda index, pairs: None)
        except ServiceError as error:
            self.errors.append(f"sweep window {window}: {error}")
            return None
        cpu, ended = self.cpu() - cpu, time.perf_counter()
        self.speed.sample(REFERENCE_SAMPLES)
        return len(plan) * len(SWEEP_CELLS), self.speed.scale(cpu, started, ended)


def _session(
    server: Server, inputs: List[tuple], stream: "SweepInputs", speed: HostSpeed,
    seed: int, seconds: float, mixed: float,
) -> Session:
    """Run the interactive client alone, then the sweep alone, for ``seconds`` together.

    With ``mixed`` > 0, both clients then run side by side for ``mixed``
    seconds more.
    """
    session = Session(server, inputs, stream, speed)
    # ServiceClient.wait jitters its polls with the global RNG.
    random.seed(seed)
    session.stats_before = ServiceClient(server.url).stats()
    recorder = SweepClient(server.url)
    backend = ServiceBackend([server.url], client="sweep", client_factory=lambda url: recorder)
    client = CountingClient(server.url)

    started = time.perf_counter()
    interactive_deadline = started + seconds * INTERACTIVE_SHARE
    while session.sent < INTERACTIVE_POOL * REGISTERS and (
        time.perf_counter() < interactive_deadline or session.sent < ORACLE_FUNCTIONS
    ):
        job = session.interactive_job(client)
        if job is not None:
            session.interactive.append(job)
    deadline = started + seconds
    # Whole laps of the size bands only, so every lap sweeps the same sizes.
    while not session.windows or len(session.windows) % len(SIZE_BANDS) or time.perf_counter() < deadline:
        window = session.sweep_window(backend, recorder)
        if window is None:
            break
        session.windows.append(window)
    for job in session.interactive:
        job["cpu"] = speed.scale(job["raw_cpu"], job["start"], job["end"])
    session.peak_rss_mb = server.peak_rss_mb()
    if mixed > 0:
        _mixed(session, backend, recorder, mixed)
    session.batches = recorder.batches
    session.stats_after = ServiceClient(server.url).stats()
    return session


def _mixed(session: Session, backend: ServiceBackend, recorder: "SweepClient", seconds: float) -> None:
    """Both clients side by side: interactive jobs queue beside the sweep's batches."""
    sweep_done = threading.Event()
    deadline = time.perf_counter() + seconds

    def interactive_loop() -> None:
        client = CountingClient(session.server.url)
        while session.sent < INTERACTIVE_POOL * REGISTERS and not (
            time.perf_counter() >= deadline and sweep_done.is_set()
        ):
            job = session.interactive_job(client)
            if job is not None:
                session.mixed.append(job)

    def sweep_loop() -> None:
        try:
            while time.perf_counter() < deadline:
                if session.sweep_window(backend, recorder) is None:
                    return
        finally:
            sweep_done.set()

    threads = [threading.Thread(target=interactive_loop), threading.Thread(target=sweep_loop)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def _interactive_inputs(seed: int) -> List[tuple]:
    """``(function, ir_text)`` of the interactive pool, plus one warm-up function."""
    functions = [generate_program(seed, index, "medium") for index in range(INTERACTIVE_POOL + 1)]
    return [(function, print_function(function)) for function in functions]


def _prewarm(store_path: Path, inputs: List[tuple]) -> None:
    """Run the allocate stage of every even-numbered function into the store."""
    with Pipeline.from_spec(
        ALLOCATOR, target=TARGET, registers=REGISTERS,
        stages=("liveness", "interference", "extract", "allocate"), store=store_path,
    ) as pipeline:
        for function, _ in inputs[:INTERACTIVE_POOL:2]:
            pipeline.run(function)


def _interactive_body(name: str, text: str, registers: int = REGISTERS) -> dict:
    return {
        "ir": text, "name": name, "allocator": ALLOCATOR, "target": TARGET,
        "registers": registers, "client": "interactive",
    }


class SweepInputs:
    """The sweep's problems: seeded oracle functions, extracted the way a JIT sees them.

    Window ``i``'s problem (interference graph and live intervals) is that
    of the first oracle function of the ``small`` profile, numbered from
    ``SWEEP_FIRST + i * CANDIDATES``, whose variable count lies in band
    ``i % len(SIZE_BANDS)``.  The service's cost per cell grows faster than
    linearly with the graph, so the twenty-odd windows of a run must cover
    the same sizes on every seed: drawn freely, their mean size moved the
    throughput 24% between seeds, and eembc problems (fewer, larger
    windows) 37%.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._extract = Pipeline.from_spec(
            ALLOCATOR, target=TARGET, registers=REGISTERS, stages=("liveness", "interference", "extract")
        )

    def _candidate(self, number: int):
        return self._extract.run(generate_program(self.seed, number, SWEEP_PROFILE)).problem

    def problem(self, index: int):
        low, high = SIZE_BANDS[index % len(SIZE_BANDS)]
        first = SWEEP_FIRST + index * CANDIDATES
        for number in range(first, first + CANDIDATES):
            problem = self._candidate(number)
            if low <= len(problem.graph) < high:
                return problem
        raise SetupError(f"no {SWEEP_PROFILE} function of seed {self.seed} has {low}..{high - 1} variables")

    def warmup(self):
        """A problem of the largest band that no window sweeps."""
        return self.problem(-1)


def _start(checkout: Checkout, directory: Path, inputs: List[tuple], stream: SweepInputs, probe: bool) -> Server:
    """Pre-warm a fresh store, start a server on it and warm up both job kinds.

    The warm-up batch holds a problem no window sweeps, at R=8, so it shares
    no cell with the sweep's windows.
    """
    directory.mkdir(parents=True)
    _prewarm(directory / "store.sqlite", inputs)
    server = Server(checkout, directory, probe)
    try:
        client = ServiceClient(server.url)
        client.health()
        warm_up = client.submit(_interactive_body("warmup", inputs[INTERACTIVE_POOL][1]))
        client.wait(warm_up["job"]["id"])
        problem = stream.warmup()
        cells = [cell for cell in SWEEP_CELLS if cell[0] == REGISTERS]
        ServiceBackend([server.url]).run_plan([(0, problem, problem.name, cells)], SWEEP_CONFIG, lambda *_: None)
    except ServiceError as error:
        server.stop()
        raise SetupError(f"the service did not complete its warm-up jobs: {error}") from None
    return server



def run(checkout: Checkout, seed: int, seconds: float, trace: bool) -> Result:
    with checkout.workdir("service") as workdir:
        return _run(checkout, workdir, seed, seconds, trace)


def _run(checkout: Checkout, workdir: Path, seed: int, seconds: float, trace: bool) -> Result:
    result = Result()
    setups: List[Tuple[float, float, float]] = []
    sessions: List[Session] = []
    server: Optional[Server] = None
    speed = HostSpeed()
    try:
        for attempt in range(SETUP_REPEATS):
            speed.sample(REFERENCE_SAMPLES)
            # Servers of earlier attempts were reaped: their CPU time is in
            # children_cpu_seconds() already.
            started, started_wall = time.process_time() + children_cpu_seconds(), time.perf_counter()
            inputs = _interactive_inputs(seed)
            stream = SweepInputs(seed)
            server = _start(checkout, workdir / f"setup-{attempt}", inputs, stream, probe=False)
            cpu = time.process_time() + children_cpu_seconds() + server.cpu() - started
            setups.append((cpu, started_wall, time.perf_counter()))
            if attempt < SETUP_REPEATS - 1:
                server.stop()
                server = None

        # A traced run gives half its time to the unprobed server of the
        # last set-up and half to a probed one on an identical fresh store,
        # which then also runs both clients side by side.
        probed_phases = (False, True) if trace else (False,)
        for probed in probed_phases:
            if server is None:
                server = _start(checkout, workdir / "probed", inputs, stream, probe=True)
            share = seconds / len(probed_phases)
            session = _session(
                server, inputs, stream, speed, seed, share, mixed=share * MIXED_SHARE if probed else 0.0
            )
            session.probe = server.stop()
            server = None
            sessions.append(session)
    finally:
        if server is not None:
            server.stop()

    for session in sessions:
        for message in session.errors:
            result.fail(message)
        result.attempted += len(session.interactive) + len(session.mixed) + len(session.batches) + len(session.errors)
    quality = _check(
        inputs,
        [job for session in sessions for job in session.interactive + session.mixed],
        [batch for session in sessions for batch in session.batches],
        result,
    )
    for name in DeterminismLedger(checkout, "service", seed).check(quality):
        result.fail(f"deterministic metric {name} drifted from the value recorded for seed {seed}")

    measured = sessions[0]
    if not measured.interactive or not measured.windows:
        raise SetupError(f"the service completed no interactive job or no sweep window: {result.failures[:3]}")
    costs = [job["cpu"] for job in measured.interactive]
    warm = [job["cpu"] for job in measured.interactive if job["warm"]]
    summary = metrics.summarize_latencies(costs)
    cells = sum(count for count, _ in measured.windows)
    result.notes.append(
        ("unprobed half: " if trace else "")
        + f"{len(costs)} interactive jobs ({len(warm)} pre-warmed), "
        f"{len(measured.windows)} sweep windows, {len(measured.batches)} batches, {cells} cells; "
        f"wall submit-to-result p50 {metrics.median([job['latency'] for job in measured.interactive]) * 1000.0:.1f} ms; "
        f"reference loop {speed.reference_ms():.3f} ms (median of {len(speed)})"
    )
    result.end_to_end = {
        "setup_s": metrics.median([speed.scale(cpu, start, end) for cpu, start, end in setups]),
        "ok_ratio": result.ok_ratio,
        "peak_rss_mb": measured.peak_rss_mb,
        "fn_per_s": len(costs) / sum(costs),
        "p50_ms": summary["p50_ms"],
        "p95_ms": summary["p95_ms"],
        "sweep_cells_per_s": metrics.median(metrics.lap_throughputs(measured.windows, len(SIZE_BANDS))),
        "warm_s": metrics.median(warm),
        **quality,
    }
    if trace:
        result.layers = _layers(sessions[0], sessions[-1])
        result.notes.append(
            f"per-layer numbers from the probed half ({len(sessions[-1].interactive)} interactive jobs alone, "
            f"{len(sessions[-1].mixed)} beside the sweep); trace.overhead_ratio compares the CPU cost of its "
            f"first jobs with the same jobs on the unprobed half"
        )
    return result


def _check(inputs, interactive: List[dict], batches: List[dict], result: Result) -> Dict[str, float]:
    """Every job ended ``done`` with the payload an in-process run gives.

    Returns the deterministic quality numbers of the first interactive
    functions: their dynamic spill operations and normalised costs.
    """
    def canonical(payload) -> str:
        # Round-trip first, so in-process payloads get the wire's string keys.
        return json.dumps(json.loads(json.dumps(payload)), sort_keys=True)

    checked: Dict[int, object] = {}
    for job in interactive:
        final = job["job"]
        if final["state"] != "done":
            result.fail(f"interactive {job['index']} ended {final['state']}: {final.get('error')}")
            continue
        function, text = inputs[job["index"]]
        pipeline = Pipeline.from_spec(ALLOCATOR, target=TARGET, registers=job["registers"])
        expected = []
        for parsed in parse_module(text, name=function.name):
            context = pipeline.run(parsed)
            expected.append(deterministic_summary(context.summary()))
            if job["registers"] == REGISTERS:
                checked[job["index"]] = context
        if canonical(final["result"]["functions"]) != canonical(expected):
            result.fail(f"interactive {job['index']}: service result differs from an in-process run")

    spill_ratios: List[float] = []
    costs: Dict[str, Dict[str, float]] = {}
    for index in range(ORACLE_FUNCTIONS):
        if index not in checked:
            result.fail(f"interactive function {index} has no checked result")
            continue
        context = checked[index]
        report = diff_functions(inputs[index][0], context.rewritten, max_steps=ORACLE_MAX_STEPS)
        if report.budget_exhausted or not report.ok:
            result.fail(f"interactive function {index}: no clean differential verdict")
            continue
        overhead = report.spill_overhead
        executed = sum(before.steps for before, _ in report.pairs)
        spill_ratios.append((overhead["loads"] + overhead["stores"]) / executed)
        # NL's cost is the service's (equal to the in-process run's, checked
        # above); the other allocators run in process on the same problem.
        row = {ALLOCATOR: context.spill_cost}
        for name in COMPARED:
            if name not in row:
                row[name] = get_allocator(name).allocate(context.problem).spill_cost
        costs[str(index)] = row

    for number, batch in enumerate(batches):
        final = batch["job"]
        if final is None or final["state"] != "done":
            state = "unpolled" if final is None else f"{final['state']}: {final.get('error')}"
            result.fail(f"sweep batch {number} (window {batch['window']}) ended {state}")
            continue
        members = final["result"]["jobs"]
        if len(members) != len(batch["body"]["jobs"]):
            result.fail(f"sweep batch {number}: {len(members)} member results")
            continue
        # Members sharing a graph and register count share one problem, so
        # its derived caches (elimination order, cliques) are built once.
        problems: Dict[tuple, object] = {}
        for member, body in zip(members, batch["body"]["jobs"]):
            spec = PipelineSpec.parse({"allocator": body["allocator"], "target": None, "registers": body["registers"]})
            key = (body["name"], body["registers"])
            if key not in problems:
                ((_, problems[key]),) = submission_problems(normalize_submission(body))
            context = Pipeline(spec).run_problem(problems[key])
            expected = [deterministic_summary(context.summary())]
            if canonical(member["functions"]) != canonical(expected):
                result.fail(f"sweep batch {number} {body['name']} {body['allocator']} R={body['registers']}: differs")
    normalised = metrics.normalised_costs(costs) if costs else {}
    return {
        "spill_ops_dyn": metrics.mean(spill_ratios) if spill_ratios else 0.0,
        "norm_cost.NL": normalised.get("NL", 0.0),
        "norm_cost.BFPL": normalised.get("BFPL", 0.0),
        "norm_cost.LH": normalised.get("LH", 0.0),
    }


def _server_ms(job: dict) -> float:
    """Server time of a job: created to finished, in milliseconds."""
    return (job["updated_at"] - job["created_at"]) * 1000.0


def _layers(unprobed: Session, probed: Session) -> Dict[str, float]:
    """Per-layer numbers of the probed session's interactive jobs and batches.

    The layers split the wall time of an interactive job sent alone; the
    jobs sent beside the sweep give the latency and queue wait under it.
    """
    submit, server, run, slack, polls = [], [], [], [], []
    stages: Dict[str, List[float]] = {stage: [] for stage in STAGES}
    for job in probed.interactive:
        final = job["job"]
        stage_seconds = final["result"]["meta"]["stage_seconds"]
        submit.append(job["submit"] * 1000.0)
        server.append(_server_ms(final))
        run.append(sum(stage_seconds.values()) * 1000.0)
        slack.append((job["t2"] - final["updated_at"]) * 1000.0)
        polls.append(float(job["polls"]))
        for stage in STAGES:
            stages[stage].append(stage_seconds.get(stage, 0.0) * 1000.0)
    layers = {
        "service.latency_ms": metrics.mean([job["latency"] * 1000.0 for job in probed.interactive]),
        "service.submit_ms": metrics.mean(submit),
        "service.job_run_ms": metrics.mean(run),
        "service.queue_wait_ms": metrics.mean(server) - metrics.mean(run),
        "service.poll_slack_ms": metrics.mean(slack),
        "service.polls_per_job": metrics.mean(polls),
        "service.batch_ms": metrics.mean([_server_ms(batch["job"]) for batch in probed.batches]),
    }
    for stage in STAGES:
        layers[f"service.pass.{stage}_ms"] = metrics.mean(stages[stage])
    layers["service.residual_ms"] = metrics.residual(
        layers["service.latency_ms"],
        [layers["service.submit_ms"], layers["service.queue_wait_ms"], layers["service.job_run_ms"], layers["service.poll_slack_ms"]],
    )
    mixed = probed.mixed or probed.interactive
    layers["service.mixed_latency_ms"] = metrics.median([job["latency"] * 1000.0 for job in mixed])
    layers["service.mixed_queue_wait_ms"] = metrics.mean(
        [
            _server_ms(job["job"]) - sum(job["job"]["result"]["meta"]["stage_seconds"].values()) * 1000.0
            for job in mixed
        ]
    )
    before, after = probed.stats_before["cache"], probed.stats_after["cache"]
    hits, misses = after["hit"] - before["hit"], after["miss"] - before["miss"]
    layers["service.cache_hit_ratio"] = metrics.ratio(hits, hits + misses)
    layers["cli.import_s"] = probed.probe["import_s"]
    layers["store.put_s"] = probed.probe["seconds"].get("store.put", 0.0)
    layers["store.flush_s"] = probed.probe["seconds"].get("store.flush", 0.0)
    # Both halves submit the same functions in the same order.
    shared = min(len(unprobed.interactive), len(probed.interactive))
    layers["trace.overhead_ratio"] = (
        metrics.mean([job["cpu"] for job in probed.interactive[:shared]])
        / metrics.mean([job["cpu"] for job in unprobed.interactive[:shared]])
        - 1.0
    )
    return layers
