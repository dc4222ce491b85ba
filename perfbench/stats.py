"""Summary statistics, resource usage and the host fingerprint."""

from __future__ import annotations

import os
import platform
import resource

#: Percentiles the tail rule chooses from, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: Samples that must lie strictly beyond a reported tail percentile.
TAIL_MIN_BEYOND = 10


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile (the smallest sample with at least
    ``pct`` percent of the samples at or below it)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))  # ceil
    return ordered[int(rank) - 1]


def tail(values: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it) for the highest ladder
    percentile that leaves at least :data:`TAIL_MIN_BEYOND` samples
    strictly above its value.  Falls back to the median when even that
    has fewer (tiny runs)."""
    ordered = sorted(values)
    for pct in TAIL_LADDER:
        value = percentile(ordered, pct)
        beyond = sum(1 for v in ordered if v > value)
        if beyond >= TAIL_MIN_BEYOND:
            return pct, value, beyond
    value = percentile(ordered, 50.0)
    return 50.0, value, sum(1 for v in ordered if v > value)


def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest reaped child (MB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0  # ru_maxrss is in KiB on Linux


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def host_fingerprint() -> dict:
    """What a result depends on besides the code: records whose
    fingerprints differ are not comparable."""
    from repro.sat.kernel import resolve_kind

    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count() or 1,
        "python": platform.python_version(),
        "kernel": resolve_kind(),
    }


def process_alive(pid: int) -> bool:
    """Whether ``pid`` names a live, non-zombie process."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state not in ("Z", "X")
