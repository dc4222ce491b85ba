"""Compare two result records of the same workload.

Usage::

    python3 perfbench/compare.py perfbench/out/A.json perfbench/out/B.json

Refuses (exit 2) records whose host fingerprints or workloads differ:
a figure measured on another CPU, core count, Python or SAT kernel is
not comparable.  Otherwise prints every end-to-end metric of both
records and their ratio (new / base).
"""

from __future__ import annotations

import json
import sys


class NotComparable(ValueError):
    """The two records were measured under different conditions."""


def compare(base: dict, new: dict) -> dict[str, tuple[float, float]]:
    """Metric -> (base value, new value); raises :class:`NotComparable`."""
    if base.get("host") != new.get("host"):
        raise NotComparable(
            f"host fingerprints differ: {base.get('host')} vs "
            f"{new.get('host')}"
        )
    if base.get("workload") != new.get("workload"):
        raise NotComparable(
            f"workloads differ: {base.get('workload')} vs "
            f"{new.get('workload')}"
        )
    return {
        name: (value, new["end_to_end"][name])
        for name, value in base["end_to_end"].items()
        if name in new.get("end_to_end", {})
    }


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    records = []
    for path in argv:
        with open(path, encoding="utf-8") as fh:
            records.append(json.load(fh))
    try:
        rows = compare(*records)
    except NotComparable as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    for name, (old, new) in rows.items():
        ratio = new / old if old else float("nan")
        print(f"{name:<16} {old:>12.6g} {new:>12.6g}  x{ratio:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
