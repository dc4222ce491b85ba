"""The workloads: set-up, timed cycles, oracle, leak checks.

Every workload is a closed loop over a fixed seeded list, run in whole
*cycles* (one pass over the list) until ``--seconds`` have passed, so
each run measures the same task mix whatever the speed of the code.

With tracing on, untraced and traced cycles alternate: end-to-end
figures come from the untraced cycles, per-layer figures from the
traced ones, and the ratio of the two throughputs is the tracing
overhead.
"""

from __future__ import annotations

import multiprocessing
import os
import statistics
import threading
import time
from dataclasses import dataclass, field

from perfbench import inputs, layers, oracle, stats
from perfbench.spans import Tracer

#: Set-up repetitions per run; ``setup_s`` reports their median.
SETUP_REPS = 5

#: Client timeout for one gateway request (seconds).
CLIENT_TIMEOUT_S = 60.0


@dataclass
class Sample:
    """One timed task or gateway request."""

    key: str
    latency: float
    traced: bool
    error: str | None = None
    cycle: int = -1  # -1: not a timed sample (teardown checks)


@dataclass
class Phase:
    """Per-cycle totals of the untraced or the traced cycles."""

    walls: list[float] = field(default_factory=list)
    cpus: list[float] = field(default_factory=list)
    sizes: list[int] = field(default_factory=list)

    def add(self, wall: float, cpu: float, size: int) -> None:
        self.walls.append(wall)
        self.cpus.append(cpu)
        self.sizes.append(size)

    @property
    def cycles(self) -> int:
        return len(self.walls)

    @property
    def wall(self) -> float:
        return sum(self.walls)

    @property
    def tasks(self) -> int:
        return sum(self.sizes)

    @property
    def tasks_per_s(self) -> float:
        """Median over cycles of tasks completed per second."""
        if not self.walls:
            return 0.0
        return statistics.median(
            [n / w for n, w in zip(self.sizes, self.walls)]
        )

    @property
    def cpu_per_task(self) -> float:
        """Median over cycles of CPU seconds per task."""
        if not self.cpus:
            return 0.0
        return statistics.median(
            [c / max(n, 1) for n, c in zip(self.sizes, self.cpus)]
        )


@dataclass
class RunResult:
    """Everything a run measured, before it is turned into metrics."""

    workload: str
    setup_samples: list[float]
    samples: list[Sample] = field(default_factory=list)
    plain: Phase = field(default_factory=Phase)
    traced: Phase = field(default_factory=Phase)
    problems: list[str] = field(default_factory=list)
    spans: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    gateway_status: dict = field(default_factory=dict)
    #: Peak RSS when the timed phase ended, before the oracle ran.
    peak_rss_mb: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.samples)

    @property
    def failed(self) -> int:
        return sum(1 for s in self.samples if s.error is not None)


def _cycle_modes(traced: bool):
    """Cycle modes: untraced only, or untraced/traced alternating."""
    cycle = 0
    while True:
        yield traced and cycle % 2 == 1
        cycle += 1


def _done(run: RunResult, seconds: float, traced: bool) -> bool:
    if run.plain.wall + run.traced.wall < seconds:
        return False
    return not traced or (run.plain.cycles and run.traced.cycles)


class ServiceWatch:
    """Records solver-service worker PIDs as services start, so a
    teardown check can find workers that outlive their task."""

    def __init__(self):
        from repro.sat.service import SolverService

        self.pids: list[int] = []
        self._cls = SolverService
        self._original = SolverService.__dict__["start"]
        original, pids = self._original, self.pids

        def start(service):
            result = original(service)
            pids.extend(p for p in service.worker_pids() if p)
            return result

        SolverService.start = start

    def leaked(self) -> list[int]:
        alive = [pid for pid in self.pids if stats.process_alive(pid)]
        self.pids.clear()
        return alive

    def close(self) -> None:
        self._cls.start = self._original


# ----------------------------------------------------------------------
# verify / design
# ----------------------------------------------------------------------

def call_task(task: inputs.Task):
    """Run one task through the public task API."""
    from repro import tasks as api

    inst = task.instance
    fn = {
        "verify": api.verify_schedule,
        "generate": api.generate_layout,
        "optimize": api.optimize_schedule,
    }[task.kind]
    return fn(inst.net, inst.schedule, inst.r_t, parallel=task.parallel)


def run_tasks(workload: str, build, seed: int, seconds: float,
              traced: bool) -> RunResult:
    """Closed loop, one caller, over ``build(seed)``'s task list."""
    setup = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        task_list = build(seed)
        setup.append(time.perf_counter() - start)
    run = RunResult(workload, setup)
    tracer = Tracer() if traced else None
    # Only what the oracle needs is kept, so retained results do not
    # inflate the peak RSS read at the end of the timed phase.
    answers: list[tuple[Sample, inputs.Task, oracle.Answer, object]] = []
    watch = ServiceWatch()
    try:
        for cycle, traced_cycle in enumerate(_cycle_modes(traced)):
            patches = layers.install(tracer) if traced_cycle else None
            phase = run.traced if traced_cycle else run.plain
            cpu0, wall0 = stats.cpu_seconds(), time.perf_counter()
            for index, task in enumerate(task_list):
                error, result = None, None
                start = time.perf_counter()
                try:
                    if traced_cycle:
                        with tracer.span(f"tasks.{task.kind}", task=index):
                            result = call_task(task)
                    else:
                        result = call_task(task)
                except Exception as exc:  # noqa: BLE001 — counted, reported
                    error = f"{task.key}: {type(exc).__name__}: {exc}"
                latency = time.perf_counter() - start
                leaked = watch.leaked() + [
                    p.pid for p in multiprocessing.active_children()
                ]
                if leaked and error is None:
                    error = f"{task.key}: leaked workers {leaked}"
                sample = Sample(task.key, latency, traced_cycle, error,
                                cycle)
                run.samples.append(sample)
                if result is not None:
                    answers.append((sample, task,
                                    oracle.answer_of(task.kind, result),
                                    result.solution))
            phase.add(time.perf_counter() - wall0,
                      stats.cpu_seconds() - cpu0, len(task_list))
            if patches is not None:
                patches.undo()
            if _done(run, seconds, traced):
                break
    finally:
        watch.close()
    run.peak_rss_mb = stats.peak_rss_mb()
    if tracer is not None:
        run.spans, run.counters = tracer.spans, dict(tracer.counters)
    _check_answers(answers)
    run.problems = [s.error for s in run.samples if s.error is not None]
    return run


def _fail(sample: Sample, problems: list[str]) -> None:
    """A wrong answer fails the operation that gave it."""
    if problems and sample.error is None:
        sample.error = "; ".join(problems)


class References:
    """Reference answers, solved once per instance.  A reference solve
    that raises is a failure of the program, reported for every answer
    it was meant to check."""

    def __init__(self):
        self._answers: dict[str, oracle.Answer | str] = {}

    def check(self, task, answer: oracle.Answer) -> list[str]:
        if task.key not in self._answers:
            try:
                self._answers[task.key] = oracle.reference_answer(task)
            except Exception as exc:  # noqa: BLE001 — reported per answer
                self._answers[task.key] = (
                    f"{task.key}: reference solve failed: "
                    f"{type(exc).__name__}: {exc}"
                )
        reference = self._answers[task.key]
        if isinstance(reference, str):
            return [reference]
        return oracle.check_against(task.kind, task.instance.name, answer,
                                    reference)


def _check_answers(answers) -> None:
    """Oracle over every (sample, task, answer, solution)."""
    validator = oracle.Validator()
    references = References()
    for sample, task, answer, solution in answers:
        case = task.instance.case
        if case is not None:
            found = oracle.check_table1(task.kind, case, answer)
        else:
            found = references.check(task, answer)
        found += validator.check_solution(task, answer, solution)
        _fail(sample, found)


# ----------------------------------------------------------------------
# gateway
# ----------------------------------------------------------------------

def _socket_path() -> str:
    os.makedirs(os.path.join("perfbench", "out"), exist_ok=True)
    return os.path.join("perfbench", "out", f"gw-{os.getpid()}.sock")


def _start_gateway(socket_path: str):
    from repro.gateway import GatewayConfig, GatewayThread

    thread = GatewayThread(GatewayConfig(socket_path=socket_path))
    thread.start()
    return thread


def _teardown_leaks(thread, client, socket_path: str) -> list[str]:
    """Stop the gateway; report surviving workers or socket files."""
    pids = client.status()["workers"]["pids"]
    thread.stop()
    problems = [
        f"gateway worker {pid} survived shutdown"
        for pid in pids if stats.process_alive(pid)
    ]
    if os.path.exists(socket_path):
        problems.append(f"gateway socket {socket_path} left behind")
    return problems


def _status_counters(status: dict) -> dict:
    metrics = status.get("metrics", {})
    cache = status.get("cache", {})
    return {
        "requests": metrics.get("gateway.requests", 0),
        "hits": cache.get("hits", 0),
        "warm_hits": cache.get("warm_hits", 0),
        "warm_starts": metrics.get("gateway.warm_starts", 0),
        "rejected": sum(
            v for k, v in metrics.items()
            if k.startswith("gateway.rejected")
        ),
        "worker_crashes": status.get("workers", {}).get("crashes", 0),
    }


def run_gateway(seed: int, seconds: float, traced: bool) -> RunResult:
    """Two closed-loop clients over the seeded request stream; one
    fresh gateway (empty cache) per cycle."""
    from repro.gateway import GatewayClient

    socket_path = _socket_path()
    client = GatewayClient(socket_path, timeout_s=CLIENT_TIMEOUT_S)
    setup = []
    teardown_problems: list[str] = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        stream = inputs.gateway_stream(seed)
        thread = _start_gateway(socket_path)
        setup.append(time.perf_counter() - start)
        teardown_problems += _teardown_leaks(thread, client, socket_path)
    run = RunResult("gateway", setup)
    tracer = Tracer() if traced else None
    answers: list[tuple[Sample, inputs.Request, oracle.Answer, tuple]] = []
    for cycle, traced_cycle in enumerate(_cycle_modes(traced)):
        thread = _start_gateway(socket_path)
        patches = layers.install(tracer) if traced_cycle else None
        phase = run.traced if traced_cycle else run.plain
        cursor = iter(range(len(stream)))
        lock = threading.Lock()
        cycle_samples: list[Sample] = []

        def client_loop():
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                request = stream[index]
                rid = cycle * len(stream) + index
                payload = {**request.payload, "request_id": rid}
                error, response = None, None
                start = time.perf_counter()
                root = None
                if traced_cycle:
                    root = tracer.open("gateway.request", task=rid)
                    tracer.requests[rid] = root
                try:
                    response = client.request(payload)
                except Exception as exc:  # noqa: BLE001 — counted
                    error = f"{type(exc).__name__}: {exc}"
                finally:
                    if root is not None:
                        tracer.close(root)
                latency = time.perf_counter() - start
                if response is not None and not response.get("ok"):
                    error = f"gateway refused: {response.get('error')}"
                key = f"{request.kind}:{request.task.key}"
                sample = Sample(key, latency, traced_cycle,
                                f"{key}: {error}" if error else None, cycle)
                cycle_samples.append(sample)
                if error is None:
                    answers.append((
                        sample, request,
                        oracle.answer_of_response(request.task.kind,
                                                  response),
                        tuple(response.get("model") or ()),
                    ))

        cpu0, wall0 = stats.cpu_seconds(), time.perf_counter()
        clients = [threading.Thread(target=client_loop) for _ in range(2)]
        for worker in clients:
            worker.start()
        for worker in clients:
            worker.join()
        wall = time.perf_counter() - wall0
        if patches is not None:
            patches.undo()
            status = _status_counters(client.status())
            for key, value in status.items():
                run.gateway_status[key] = (
                    run.gateway_status.get(key, 0) + value
                )
        leaks = _teardown_leaks(thread, client, socket_path)
        phase.add(wall, stats.cpu_seconds() - cpu0, len(cycle_samples))
        run.samples += cycle_samples
        if leaks:
            run.samples.append(Sample("teardown", 0.0, traced_cycle,
                                      "; ".join(leaks)))
        if _done(run, seconds, traced):
            break
    if teardown_problems:
        run.samples.append(Sample("setup-teardown", 0.0, False,
                                  "; ".join(teardown_problems)))
    run.peak_rss_mb = stats.peak_rss_mb()
    if tracer is not None:
        run.spans, run.counters = tracer.spans, dict(tracer.counters)
    _check_responses(answers)
    run.problems = [s.error for s in run.samples if s.error is not None]
    return run


def _check_responses(answers) -> None:
    """Every answer must equal the cold answer for its instance; cold
    answers are checked against Table I or the eager reference, and
    every SAT model is validated."""
    validator = oracle.Validator()
    references = References()
    validated: set[tuple] = set()
    for sample, request, answer, model in answers:
        task = request.task
        found = references.check(task, answer)
        if task.instance.case is not None:
            found += oracle.check_table1(task.kind, task.instance.case,
                                         answer)
        if answer.satisfiable and (task.key, model) not in validated:
            found += validator.check_model(task, list(model))
            validated.add((task.key, model))
        _fail(sample, found)


WORKLOADS = {
    "verify": lambda seed, seconds, traced: run_tasks(
        "verify", inputs.verify_tasks, seed, seconds, traced),
    "design": lambda seed, seconds, traced: run_tasks(
        "design", inputs.design_tasks, seed, seconds, traced),
    "gateway": run_gateway,
    "verify-loops": lambda seed, seconds, traced: run_tasks(
        "verify-loops",
        lambda s: inputs.verify_tasks(s, shapes=inputs.LOOP_SHAPES),
        seed, seconds, traced),
    "design-loops": lambda seed, seconds, traced: run_tasks(
        "design-loops",
        lambda s: inputs.design_tasks(s, shapes=inputs.LOOP_SHAPES),
        seed, seconds, traced),
}

#: The workloads in ``BENCHMARK.json``, which ``--workload all`` runs.
#: The others fail on open program defects (see ``README.md``).
REGISTERED = ("verify", "design")
