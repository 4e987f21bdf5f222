"""A/B comparison of two benchmark result sets.

    python3 perfbench/compare.py BASE.json NEW.json

Both files are written by sweep.py.  For every workload and end-to-end
metric this prints each side's median and quartiles over its untraced
runs, the change of the median, and one verdict, using that metric's
`bound` and `better` from BENCHMARK.json:

* unresolved: either side's quartile spread, as a share of its median, is
  wider than the bound, unless every NEW run beats (or loses to) every
  BASE run, which then reads better (or worse);
* worse: the NEW median is worse than the BASE median by more than the
  bound;
* better: the NEW median is better by more than the BASE quartile spread,
  and NEW wins at least nine in ten runs paired by seed;
* unchanged: otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def summary(values):
    """(median, first quartile, third quartile), as statistics.quantiles gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def spread(values) -> float:
    """Quartile distance as a share of the median."""
    median, q1, q3 = summary(values)
    return (q3 - q1) / median if median else float("inf") if q3 > q1 else 0.0


def by_workload(result_set, metric):
    """{workload: {seed: value}} over the set's untraced runs."""
    out = {}
    for run in result_set["runs"]:
        if run["trace"] == 0 and metric in run["result"]["metrics"]:
            value = run["result"]["metrics"][metric]["value"]
            out.setdefault(run["workload"], {})[run["seed"]] = value
    return out


def verdict(base, new, bound, higher_is_better) -> tuple[str, float]:
    """(verdict, signed change of the median as a share of BASE's)."""
    sign = 1 if higher_is_better else -1
    base_median, base_q1, base_q3 = summary(list(base.values()))
    new_median = summary(list(new.values()))[0]
    gain = sign * (new_median - base_median) / base_median if base_median else 0.0
    if max(spread(list(base.values())), spread(list(new.values()))) > bound:
        if min(sign * v for v in new.values()) > max(sign * v for v in base.values()):
            return "better", gain
        if max(sign * v for v in new.values()) < min(sign * v for v in base.values()):
            return "worse", gain
        return "unresolved", gain
    if gain < -bound:
        return "worse", gain
    paired = [sign * (new[s] - base[s]) for s in new.keys() & base.keys()]
    wins = sum(d > 0 for d in paired)
    if (sign * (new_median - base_median) > base_q3 - base_q1
            and paired and wins >= 0.9 * len(paired)):
        return "better", gain
    return "unchanged", gain


def compare(base_set, new_set, benchmark) -> list[str]:
    rows = []
    for metric in benchmark["end_to_end"]:
        name = metric["name"]
        base, new = by_workload(base_set, name), by_workload(new_set, name)
        for workload in sorted(base.keys() & new.keys()):
            cells = []
            for side in (base[workload], new[workload]):
                median, q1, q3 = summary(list(side.values()))
                cells.append(f"{median:.4g} [{q1:.4g}, {q3:.4g}] n={len(side)}")
            result, gain = verdict(base[workload], new[workload], metric["bound"],
                                   metric["better"] == "higher")
            rows.append(f"{workload:20s} {name:14s} {metric['unit']:6s} "
                        f"{cells[0]:34s} {cells[1]:34s} {gain:+7.1%} {result}")
    return rows


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    benchmark = json.loads(BENCHMARK.read_text())
    base_set, new_set = (json.loads(Path(p).read_text()) for p in argv)
    print(f"{'workload':20s} {'metric':14s} {'unit':6s} {'BASE median [q1, q3]':34s} "
          f"{'NEW median [q1, q3]':34s} {'gain':>7s} verdict")
    for row in compare(base_set, new_set, benchmark):
        print(row)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
