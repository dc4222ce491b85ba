"""End-to-end benchmark of the ETCS L3 design tasks.

Usage (from the repository root)::

    python3 perfbench/run.py --workload verify --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # registered workloads
    python3 perfbench/run.py --table1                     # full Table I check

Prints every metric by name and unit, then, as the last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Exits 1 when any answer is wrong or any operation failed, 2 when the
program under test cannot be imported.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402 — the clock above times every import
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: End-to-end metrics and their units (``BENCHMARK.json`` order).
END_TO_END = {
    "setup_s": "s",
    "tasks_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "cpu_per_task_s": "s",
    "peak_rss_mb": "MB",
}


def _import_program():
    """Import the package from this checkout's ``src`` only."""
    if sys.path and os.path.abspath(sys.path[0]) == os.path.dirname(
            os.path.abspath(__file__)):
        sys.path.pop(0)  # keep benchmark modules from shadowing stdlib
    sys.path[:0] = [SRC, ROOT]
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program at {SRC}/repro", file=sys.stderr)
        sys.exit(2)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"perfbench: repro imported from {repro.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        sys.exit(2)
    import repro.gateway  # noqa: F401
    import repro.scenarios.generator  # noqa: F401
    import repro.tasks  # noqa: F401


#: What :func:`import_seconds` times in a fresh interpreter: the same
#: imports as :func:`_import_program`.
_IMPORT_PROBE = """
import sys, time
start = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
import repro, repro.gateway, repro.scenarios.generator, repro.tasks
print(time.perf_counter() - start)
"""


def import_seconds(first: float) -> list[float]:
    """Import times of the program: this process's (``first``) and that
    of fresh interpreters, one per further set-up repetition."""
    from perfbench.workloads import SETUP_REPS

    samples = [first]
    for _ in range(SETUP_REPS - 1):
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, SRC, ROOT],
            stdout=subprocess.PIPE, text=True, check=True,
        )
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def end_to_end(run, import_s: float) -> tuple[dict, dict]:
    """(metrics, notes) from a run's untraced cycles.

    Throughput, CPU and the tail are medians over cycles, which damps
    the host's own speed swings; the tail percentile is chosen per
    cycle, so it does not change with the number of cycles a run fits.
    """
    from perfbench import stats

    by_cycle: dict[int, list[float]] = {}
    for sample in run.samples:
        if not sample.traced and sample.cycle >= 0:
            by_cycle.setdefault(sample.cycle, []).append(sample.latency)
    latencies = [v for values in by_cycle.values() for v in values]
    tails = [stats.tail(values) for values in by_cycle.values()]
    pct, _, beyond = min(tails) if tails else (0.0, 0.0, 0)
    metrics = {
        "setup_s": import_s + statistics.median(run.setup_samples),
        "tasks_per_s": run.plain.tasks_per_s,
        "latency_p50_s": statistics.median(latencies or [0.0]),
        "latency_tail_s": statistics.median(
            [stats.percentile(values, pct) for values in by_cycle.values()]
            or [0.0]
        ),
        "cpu_per_task_s": run.plain.cpu_per_task,
        "peak_rss_mb": run.peak_rss_mb,
    }
    per_cycle = len(latencies) // max(len(by_cycle), 1)
    notes = {
        "setup_s": f"median of {len(run.setup_samples)} imports "
                   f"({import_s:.3f} s) + median of "
                   f"{len(run.setup_samples)} set-ups",
        "tasks_per_s": f"median of {run.plain.cycles} cycles, "
                       f"n={run.plain.tasks} in {run.plain.wall:.2f} s",
        "latency_p50_s": f"n={len(latencies)}",
        "latency_tail_s": f"p{pct:g} per cycle, >={beyond} of "
                          f"{per_cycle} beyond, median of "
                          f"{len(by_cycle)} cycles",
        "cpu_per_task_s": "user+sys of process and children, median "
                          "of cycles",
        "peak_rss_mb": "process + largest child, before the oracle",
    }
    return metrics, notes


def per_layer(run) -> tuple[dict, dict]:
    """(metrics, self-time table) from a run's traced cycles."""
    from perfbench import layers

    metrics = layers.layer_metrics(run.spans, run.counters,
                                   run.gateway_status)
    metrics["trace.tasks_per_s"] = run.traced.tasks_per_s
    metrics["trace.overhead"] = (
        run.plain.tasks_per_s / run.traced.tasks_per_s - 1.0
        if run.traced.tasks_per_s else 0.0
    )
    table, wall = layers.self_time_table(run.spans)
    return metrics, {"self_s": table, "root_wall_s": wall}


def _write_record(record: dict, run, out_dir: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    stem = (f"{record['workload']}-seed{record['seed']}"
            f"-trace{record['trace']}")
    path = os.path.join(out_dir, stem + ".json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    if run.spans:
        with open(os.path.join(out_dir, stem + ".spans.jsonl"), "w",
                  encoding="utf-8") as fh:
            for span in run.spans:
                fh.write(json.dumps(span.as_dict()) + "\n")
    return path


def run_one(args, import_s: float) -> int:
    from perfbench import layers, stats, workloads

    traced = bool(args.trace)
    run = workloads.WORKLOADS[args.workload](args.seed, args.seconds,
                                            traced)
    host = stats.host_fingerprint()
    e2e, notes = end_to_end(run, import_s)
    attempted, failed = run.attempted, run.failed
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={int(traced)}")
    print(f"host {json.dumps(host, sort_keys=True)}")
    for name, unit in END_TO_END.items():
        print(f"  {name:<16} {e2e[name]:>12.6g} {unit:<6} "
              f"({notes[name]})")
    print(f"  {'error_rate':<16} {failed / max(attempted, 1):>12.6g} "
          f"{'ratio':<6} ({failed} failed / {attempted} attempted)")
    for problem in run.problems[:20]:
        print(f"  ! {problem}")
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": int(traced), "host": host,
        "attempted": attempted, "failed": failed,
        "end_to_end": e2e, "notes": notes, "problems": run.problems,
        "samples": [
            [s.key, round(s.latency, 6), int(s.traced), s.cycle]
            for s in run.samples
        ],
    }
    metrics = {
        name: {"value": e2e[name], "unit": unit}
        for name, unit in END_TO_END.items()
    }
    if traced:
        layer, table = per_layer(run)
        if args.workload != "gateway":
            layer = {k: v for k, v in layer.items()
                     if k not in layers.GATEWAY}
        record["per_layer"] = layer
        record["self_time"] = table
        units = layers.PER_LAYER_UNITS
        print("  per layer (traced cycles; per task unless noted):")
        for name, value in layer.items():
            print(f"    {name:<26} {value:>12.6g} {units[name]}")
        wall = table["root_wall_s"]
        total = sum(table["self_s"].values())
        print(f"  self time by layer (sum {total:.4f} s of task wall "
              f"{wall:.4f} s):")
        for name, value in sorted(table["self_s"].items(),
                                  key=lambda kv: -kv[1]):
            share = value / wall if wall else 0.0
            print(f"    {name:<20} {value:>10.4f} s {share:>7.1%}")
        print(f"  tracing overhead: untraced {run.plain.tasks_per_s:.4g} "
              f"vs traced {run.traced.tasks_per_s:.4g} tasks/s "
              f"({layer['trace.overhead']:+.1%})")
        metrics = {
            name: {"value": value, "unit": units[name]}
            for name, value in layer.items()
        }
    print(f"  record: {_write_record(record, run, args.out)}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Run every registered workload in its own process, one after the
    other."""
    from perfbench.workloads import REGISTERED

    summary, code = {}, 0
    for name in REGISTERED:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--out", args.out],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        summary[name] = json.loads(lines[-1]) if lines else None
        code = max(code, proc.returncode)
    print(json.dumps(summary))
    return code


def run_table1() -> int:
    """All twelve Table I rows, serially, checked and validated."""
    from perfbench import inputs, oracle
    from perfbench.workloads import call_task

    validator = oracle.Validator()
    cases = inputs.case_instances()
    failed = 0
    for case, inst in cases.items():
        for kind in ("verify", "generate", "optimize"):
            task = inputs.Task(kind, inst)
            start = time.perf_counter()
            try:
                result = call_task(task)
            except Exception as exc:  # noqa: BLE001 — reported as a row
                result, problems = None, [f"{type(exc).__name__}: {exc}"]
            wall = time.perf_counter() - start
            answer = oracle.Answer(False)
            if result is not None:
                answer = oracle.answer_of(kind, result)
                problems = oracle.check_table1(kind, case, answer)
                problems += validator.check_solution(task, answer,
                                                     result.solution)
            failed += bool(problems)
            print(f"{case:<16} {kind:<9} {wall:>8.3f} s  "
                  f"{'SAT' if answer.satisfiable else 'UNSAT':<5} "
                  f"{answer.value}  {'; '.join(problems) or 'ok'}",
                  flush=True)
    print(json.dumps({"rows": 12, "failed": failed}))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=os.path.join("perfbench", "out"),
                        help="directory for result records and spans")
    parser.add_argument("--table1", action="store_true",
                        help="check and time all twelve Table I rows")
    args = parser.parse_args(argv)
    _import_program()
    first_import_s = time.perf_counter() - _T0
    if args.table1:
        return run_table1()
    if args.workload == "all":
        return run_all(args)
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"known: {', '.join(WORKLOADS)}, all")
    return run_one(args, statistics.median(import_seconds(first_import_s)))


if __name__ == "__main__":
    sys.exit(main())
