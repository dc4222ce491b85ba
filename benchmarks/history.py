"""Git-SHA-keyed benchmark history: the performance observatory's log.

Every bench run appends one JSON line to ``BENCH_HISTORY.jsonl``::

    {"sha": "<git sha>", "time": <unix>, "bench": "descent",
     "host": {"cpu_model": "...", "nproc": 2, "python": "3.11.7",
              "kernel": "interpreted"},
     "metrics": {"bench.generation.service_s": 1.23, ...}}

so the repository accumulates a per-commit performance trajectory that

* ``repro trend`` renders as per-key sparkline trajectories,
* ``check_regression.py --history`` gates against (rolling median of
  the last N runs *from the same host* instead of a single committed
  baseline).

The file is append-only JSONL: torn trailing lines (a killed bench) are
skipped by every reader, and histories from different machines merge by
concatenation — the ``host`` fingerprint (CPU model, core count, Python
version, SAT kernel kind; the fields of ``perfbench/stats.py``) keeps
them apart, and records written before it existed form their own group.
``git_sha`` degrades to ``"unknown"`` outside a git checkout so benches
still record history in exported tarballs.

Use from a bench script (after ``reg.write_json(out)``)::

    from history import append_history
    append_history("descent", reg.as_dict())

or from the shell::

    python benchmarks/history.py --bench descent \
        --metrics BENCH_descent.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import time

#: Default history file, at the repository root (where ``make bench-*``
#: runs).
HISTORY_PATH = "BENCH_HISTORY.jsonl"

#: Rolling-baseline window: the median of this many most-recent runs.
DEFAULT_WINDOW = 5


def git_sha() -> str:
    """The current commit SHA, or "unknown" when git is unavailable."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    if out.returncode != 0:
        return "unknown"
    return out.stdout.strip() or "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def host_fingerprint() -> dict:
    """What a bench number depends on besides the code; numbers from
    hosts with different fingerprints are not comparable."""
    try:
        from repro.sat.kernel import resolve_kind
        kernel = resolve_kind()
    except ImportError:  # run without the package on the path
        kernel = "unknown"
    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count() or 1,
        "python": platform.python_version(),
        "kernel": kernel,
    }


def same_host(records: list[dict], host: dict | None) -> list[dict]:
    """The records taken on ``host`` (None: the records without one)."""
    return [record for record in records if record.get("host") == host]


def append_history(
    bench: str,
    metrics: dict,
    path: str = HISTORY_PATH,
    sha: str | None = None,
    timestamp: float | None = None,
    host: dict | None = None,
) -> dict:
    """Append one bench run to the history file; returns the record.

    Only scalar metric values are recorded (histogram summaries are
    dropped) so every record stays one flat comparable dict.  ``host``
    defaults to this machine's :func:`host_fingerprint`.
    """
    record = {
        "sha": sha if sha is not None else git_sha(),
        "time": timestamp if timestamp is not None else time.time(),
        "bench": bench,
        "host": host if host is not None else host_fingerprint(),
        "metrics": {
            key: value
            for key, value in sorted(metrics.items())
            if isinstance(value, (int, float, bool))
        },
    }
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True))
        handle.write("\n")
    return record


def load_history(path: str = HISTORY_PATH,
                 bench: str | None = None) -> list[dict]:
    """All history records (optionally one bench), oldest first.

    Missing file -> empty list; undecodable lines (torn appends) are
    skipped.
    """
    records: list[dict] = []
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
    except FileNotFoundError:
        return records
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue
        if not isinstance(record, dict) or "metrics" not in record:
            continue
        if bench is not None and record.get("bench") != bench:
            continue
        records.append(record)
    return records


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def rolling_baseline(records: list[dict],
                     window: int = DEFAULT_WINDOW) -> dict:
    """Per-key median over the last ``window`` records.

    The median resists one-off outlier runs (a loaded CI host) far
    better than the single most recent value, so the regression gate
    compares against a stable reference.  Keys appear only when at
    least one of the windowed records carries them.
    """
    tail = records[-window:] if window > 0 else records
    per_key: dict[str, list[float]] = {}
    for record in tail:
        for key, value in record.get("metrics", {}).items():
            if isinstance(value, bool) or not isinstance(
                value, (int, float)
            ):
                continue
            per_key.setdefault(key, []).append(value)
    return {key: _median(values) for key, values in per_key.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bench", required=True,
                        help="benchmark name (history record key)")
    parser.add_argument("--metrics", required=True,
                        help="BENCH_*.json produced by the bench run")
    parser.add_argument("--path", default=HISTORY_PATH,
                        help=f"history file (default {HISTORY_PATH})")
    args = parser.parse_args(argv)

    with open(args.metrics) as handle:
        metrics = json.load(handle)
    record = append_history(args.bench, metrics, path=args.path)
    print(f"history: {args.bench} @ {record['sha'][:9]} "
          f"({len(record['metrics'])} keys) -> {args.path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
