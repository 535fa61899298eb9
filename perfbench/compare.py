"""Compare benchmark records written with ``run.py --record``.

Usage, from the repository root::

    python3 perfbench/compare.py --old a1.json a2.json ... --new b1.json ...

Each side is a set of runs of one workload (one record per seed).
Records whose host fingerprints differ are refused (exit code 2).
Otherwise every metric is printed with each side's median and quartiles
and the relative change of the medians.  An end-to-end metric whose median
got worse by more than its ``BENCHMARK.json`` bound is flagged
``REGRESSED`` (exit code 1); one whose old-side spread (quartile distance
over the median) exceeds the bound is ``unresolved``, since the runs cannot
tell a change of that size from noise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.fingerprint import (  # noqa: E402
    FingerprintMismatch,
    check_comparable,
)
from perfbench.stats import iqr_share, quartiles  # noqa: E402


def _side(values):
    """``(median, q1, q3)``; the quartiles need at least two runs."""
    if len(values) < 2:
        return values[0], None, None
    q1, median, q3 = quartiles(values)
    return median, q1, q3


def compare(old: list, new: list, spec: dict) -> list:
    """Rows ``(metric, old side, new side, change, verdict)``.

    Raises :class:`FingerprintMismatch` when any two records come from
    different hosts, and ``ValueError`` when they are of different
    workloads or trace modes.
    """
    records = old + new
    for record in records[1:]:
        check_comparable(records[0]["host"], record["host"])
        for key in ("workload", "trace"):
            if record[key] != records[0][key]:
                raise ValueError(f"records differ in {key}: "
                                 f"{records[0][key]!r} vs {record[key]!r}")
    bounds = {metric["name"]: metric for metric in spec["end_to_end"]}
    names = set.intersection(*(set(record["metrics"]) for record in records))
    rows = []
    for name in sorted(names):
        before = [record["metrics"][name]["value"] for record in old]
        after = [record["metrics"][name]["value"] for record in new]
        old_side, new_side = _side(before), _side(after)
        change = (new_side[0] - old_side[0]) / abs(old_side[0]) \
            if old_side[0] else float("nan")
        verdict = ""
        if name in bounds:
            bound = bounds[name]["bound"]
            worse = -change if bounds[name]["better"] == "higher" else change
            if worse > bound:
                verdict = "REGRESSED"
            elif len(before) >= 2 and iqr_share(before) > bound:
                verdict = "unresolved"
        rows.append((name, old_side, new_side, change, verdict))
    return rows


def _cell(side) -> str:
    median, q1, q3 = side
    if q1 is None:
        return f"{median:>12.4f} {'':>23}"
    return f"{median:>12.4f} [{q1:>10.4f},{q3:>10.4f}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--old", nargs="+", type=Path, required=True)
    parser.add_argument("--new", nargs="+", type=Path, required=True)
    args = parser.parse_args(argv)
    old, new = ([json.loads(path.read_text()) for path in paths]
                for paths in (args.old, args.new))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        rows = compare(old, new, spec)
    except (FingerprintMismatch, ValueError) as error:
        print(f"refused: {error}", file=sys.stderr)
        return 2
    print(f"{'metric':<40} {'old median [q1, q3]':>36} "
          f"{'new median [q1, q3]':>36} {'change':>8}")
    for name, old_side, new_side, change, verdict in rows:
        print(f"{name:<40} {_cell(old_side)} {_cell(new_side)} "
              f"{change:>+8.1%} {verdict}")
    return 1 if any(row[4] == "REGRESSED" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
