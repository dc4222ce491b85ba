"""Compare a fresh ``BENCH_*.json`` against a committed baseline.

The benchmark JSON files are flat ``{"bench.<...>": number}`` dicts
(:meth:`repro.obs.metrics.MetricsRegistry.write_json`).  This script
flags any key that moved more than ``--threshold`` (fraction, default
0.25) in the *bad* direction and exits non-zero, so the CI benchmark
job fails on a real performance regression but tolerates normal noise.

Which direction is "bad" is inferred from the key name:

* lower-is-better: wall-clock (``..._s``), formula size (``..._clauses``,
  ``...constraints_added``) and refinement effort (``...rounds``);
* higher-is-better: ``speedup``, ``probes_per_s``, ``props_per_s``,
  ``clauses_saved``, ``clauses_skipped`` and the boolean ``_beats_``
  wins;
* anything else (environment facts like ``bench.host_cpus``, raw
  ``probes`` counts) is informational and never gated.

Keys present only in the baseline or only in the current run are
reported as warnings, not failures, so adding/renaming benchmarks does
not require touching this script.

Usage::

    python benchmarks/check_regression.py \
        --baseline .bench-baseline/BENCH_lazy.json \
        --current BENCH_lazy.json --threshold 0.25

With ``--history`` the baseline is instead the *rolling median* of the
last ``--window`` runs of one bench recorded in ``BENCH_HISTORY.jsonl``
(``benchmarks/history.py``) on *this* host — records from other hosts
(different CPU model, core count, Python or SAT kernel) are not
comparable and are left out — which resists one-off outlier runs better
than any single committed file.  An empty or missing history for this
host passes (first run seeds the history)::

    python benchmarks/check_regression.py \
        --history BENCH_HISTORY.jsonl --bench descent \
        --current BENCH_descent.json --window 5
"""

from __future__ import annotations

import argparse
import json

LOWER_IS_BETTER_SUFFIXES = (
    "_s", "_clauses", "constraints_added", ".rounds",
)
HIGHER_IS_BETTER_TOKENS = (
    "speedup", "probes_per_s", "props_per_s", "clauses_saved",
    "clauses_skipped", "_beats_",
)


def direction(key: str) -> str | None:
    """Return "lower", "higher", or None (ungated) for a metric key."""
    for token in HIGHER_IS_BETTER_TOKENS:
        if token in key:
            return "higher"
    for suffix in LOWER_IS_BETTER_SUFFIXES:
        if key.endswith(suffix):
            return "lower"
    return None


def compare(baseline: dict, current: dict, threshold: float):
    """Yield (key, kind, message) for every noteworthy delta."""
    for key in sorted(set(baseline) | set(current)):
        if key not in current:
            yield key, "warn", "missing from current run"
            continue
        if key not in baseline:
            yield key, "warn", "new key (no baseline)"
            continue
        sense = direction(key)
        if sense is None:
            continue
        base, cur = baseline[key], current[key]
        if isinstance(base, bool) or isinstance(cur, bool):
            if bool(base) and not bool(cur):
                yield key, "fail", f"regressed {base} -> {cur}"
            continue
        if not isinstance(base, (int, float)):
            continue
        if abs(base) < 1e-9:
            # A near-zero baseline makes the relative delta meaningless
            # (e.g. 0 refinement rounds on a trivially clean case).
            yield key, "warn", f"baseline ~0 ({base!r}), skipped"
            continue
        delta = (cur - base) / abs(base)
        if sense == "lower" and delta > threshold:
            yield key, "fail", f"{base} -> {cur} (+{delta:.0%})"
        elif sense == "higher" and delta < -threshold:
            yield key, "fail", f"{base} -> {cur} ({delta:.0%})"


def history_baseline(path: str, bench: str | None,
                     window: int) -> dict | None:
    """Rolling-median baseline from this host's records in a history
    file, or None when it has none yet (first run: nothing to gate)."""
    try:
        from history import (
            host_fingerprint,
            load_history,
            rolling_baseline,
            same_host,
        )
    except ImportError:  # script run from another cwd
        import importlib.util
        import os

        spec = importlib.util.spec_from_file_location(
            "history",
            os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "history.py"),
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        load_history = module.load_history
        rolling_baseline = module.rolling_baseline
        host_fingerprint = module.host_fingerprint
        same_host = module.same_host
    records = same_host(load_history(path, bench=bench),
                        host_fingerprint())
    if not records:
        return None
    baseline = rolling_baseline(records, window=window)
    return baseline or None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", default=None,
                        help="committed baseline BENCH_*.json")
    parser.add_argument("--current", required=True,
                        help="freshly produced BENCH_*.json")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="allowed relative slack (default 0.25)")
    parser.add_argument("--history", metavar="FILE", default=None,
                        help="gate against the rolling median of "
                             "BENCH_HISTORY.jsonl instead of --baseline")
    parser.add_argument("--bench", metavar="NAME", default=None,
                        help="history bench name to gate against "
                             "(with --history)")
    parser.add_argument("--window", type=int, default=5,
                        help="rolling-median window for --history "
                             "(default 5)")
    args = parser.parse_args(argv)

    if bool(args.baseline) == bool(args.history):
        parser.error("exactly one of --baseline or --history is required")

    if args.history:
        baseline = history_baseline(args.history, args.bench, args.window)
        if baseline is None:
            print(f"ok: no usable history from this host in "
                  f"{args.history!r} yet — nothing to gate against "
                  "(run recorded as the seed)")
            return 0
        reference = (
            f"rolling median of this host's {args.history}"
            + (f" [{args.bench}]" if args.bench else "")
        )
    else:
        with open(args.baseline) as fh:
            baseline = json.load(fh)
        reference = args.baseline
    with open(args.current) as fh:
        current = json.load(fh)

    failures = 0
    for key, kind, message in compare(baseline, current, args.threshold):
        if kind == "fail":
            failures += 1
            print(f"REGRESSION {key}: {message}")
        else:
            print(f"warning    {key}: {message}")
    if failures:
        print(f"{failures} regression(s) beyond "
              f"{args.threshold:.0%} vs {reference}")
        return 1
    print(f"ok: no regressions beyond {args.threshold:.0%} "
          f"vs {reference}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
