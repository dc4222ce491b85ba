"""Serial vs service descent (perf trajectory).

Runs the running example's generation and optimization descents twice —
serially (``parallel=1``: one incremental in-process solver) and on the
resident incremental solver service (``parallel=4``: the CNF is shipped
once, probes send assumptions + clause deltas, learned clauses are kept
and shared, and a probe returns as soon as its winner is known) — and
records wall time, probes/s and the clauses-shipped economics under
stable ``bench.*`` keys.  Both run on one
:class:`repro.sat.session.ProbeSession` code path; only the backend
differs.

Whether the service beats the serial descent depends on the host: the
race needs spare cores, and on the small running example its fork and
pipe overhead is a visible share of the descent.  ``bench.host_cpus``
records the core count next to the numbers, and the history file keys
every record by host (``benchmarks/history.py``).

Run via ``make bench-descent`` (writes ``BENCH_descent.json``) or
directly::

    PYTHONPATH=src python benchmarks/bench_descent.py --out out.json

The verdict/objective agreement between the two backends is asserted,
so the benchmark doubles as an end-to-end differential check.
"""

from __future__ import annotations

import argparse
import os
import time

from repro.casestudies.running_example import running_example
from repro.obs.metrics import MetricsRegistry
from repro.tasks import generate_layout, optimize_schedule

PROCESSES = 4
REPEAT = 3
TASKS = ("generation", "optimization")


def _run_task(task: str, parallel: int):
    study = running_example()
    net = study.discretize()
    run = generate_layout if task == "generation" else optimize_schedule
    return run(net, study.schedule, study.r_t_min, parallel=parallel)


def _best_of(fn, repeat: int = REPEAT):
    """Run ``fn`` a few times; return (last value, best wall time)."""
    best = None
    value = None
    for __ in range(repeat):
        start = time.perf_counter()
        value = fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None or elapsed < best else best
    return value, best


def bench_task(reg: MetricsRegistry, task: str) -> None:
    """Benchmark one task on both backends."""
    serial, serial_s = _best_of(lambda: _run_task(task, 1))
    service, service_s = _best_of(lambda: _run_task(task, PROCESSES))

    assert service.satisfiable == serial.satisfiable
    assert service.objective_value == serial.objective_value
    assert service.proven_optimal == serial.proven_optimal

    prefix = f"bench.{task}."
    reg.set(f"{prefix}serial_s", round(serial_s, 4))
    reg.set(f"{prefix}service_s", round(service_s, 4))
    reg.set(f"{prefix}service_speedup", round(serial_s / service_s, 3))
    reg.set(f"{prefix}probes", service.solve_calls)
    reg.set(f"{prefix}serial_probes_per_s",
            round(serial.solve_calls / serial_s, 2))
    reg.set(f"{prefix}service_probes_per_s",
            round(service.solve_calls / service_s, 2))
    # Delta-shipping economics of the service session (last run).
    for key in ("service.clauses_loaded", "service.clauses_shipped",
                "service.clauses_skipped", "service.late_replies",
                "share.broadcast", "share.imported"):
        value = service.metrics.get(key)
        if value is not None:
            reg.set(f"{prefix}{key}", value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_descent.json",
                        help="output JSON path (MetricsRegistry format)")
    parser.add_argument("--history", default="BENCH_HISTORY.jsonl",
                        help="bench history JSONL to append to "
                             "('' disables)")
    args = parser.parse_args(argv)

    reg = MetricsRegistry()
    reg.set("bench.processes", PROCESSES)
    reg.set("bench.host_cpus", os.cpu_count())
    for task in TASKS:
        bench_task(reg, task)
        summary = reg.as_dict()
        print(f"{task}: serial {summary[f'bench.{task}.serial_s']}s, "
              f"service {summary[f'bench.{task}.service_s']}s "
              f"(x{summary[f'bench.{task}.service_speedup']})")
    reg.write_json(args.out)
    print(f"wrote {args.out}")
    if args.history:
        from history import append_history

        append_history("descent", reg.as_dict(), path=args.history)
        print(f"history -> {args.history}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
