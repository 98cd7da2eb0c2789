"""Compare two sets of benchmark runs against the bounds in
``BENCHMARK.json``.

    python3 bench/compare.py A.jsonl [B.jsonl]

Each file holds the records ``bench/run.py --out`` appends, one per
workload run; runs of one workload with different seeds form a set.
For every workload and metric the script prints each set's median,
quartiles and spread (the quartile distance over the median, as
``statistics.quantiles(values, n=4)`` gives the quartiles).  It fails
(exit 1) when

- a bounded end-to-end metric other than ``setup_s`` spreads by more
  than its bound within a set, or
- set B's median is worse than set A's by more than the bound.

An improvement of any size passes.  To check that two sets of the same
code agree, run it both ways round.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path

from stats import quartiles

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> tuple:
    """``({(workload, trace): {metric: [values]}}, {metric: unit})``
    from one file of records."""
    sets = defaultdict(lambda: defaultdict(list))
    units = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            record = json.loads(line)
            key = (record["workload"], record["trace"])
            for name, metric in record["metrics"].items():
                sets[key][name].append(metric["value"])
                units[name] = metric["unit"]
    return sets, units


def main(argv) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    loaded = [load(path) for path in argv]
    units = {**loaded[0][1], **(loaded[1][1] if len(loaded) > 1 else {})}
    sets = [data for data, _units in loaded]
    failures = []
    for key in sorted(set().union(*sets)):
        workload, trace = key
        print(f"== {workload} (trace {trace})")
        names = sorted(set().union(*(s.get(key, {}) for s in sets)))
        for name in names:
            bound = bounds.get(name)
            cells, medians = [], []
            for label, data in zip("AB", sets):
                values = data.get(key, {}).get(name)
                if not values:
                    cells.append(f"{label}: -")
                    medians.append(None)
                    continue
                q1, med, q3 = quartiles(values)
                spread = (q3 - q1) / abs(med) if med else 0.0
                medians.append(med)
                cells.append(f"{label}: n={len(values)} med={med:.6g} "
                             f"q1={q1:.6g} q3={q3:.6g} "
                             f"spread={spread:.1%}")
                if bound and name != "setup_s" and \
                        spread > bound["bound"]:
                    failures.append(f"{workload} {name} set {label}: "
                                    f"spread {spread:.1%} > "
                                    f"{bound['bound']:.0%}")
            line = f"  {name:<24} [{units.get(name, '')}] " \
                + "  ".join(cells)
            if bound and len(medians) == 2 and None not in medians:
                a, b = medians
                worse = (b - a) / a if bound["better"] == "lower" \
                    else (a - b) / a
                line += f"  worse-by={worse:+.1%} (bound " \
                    f"{bound['bound']:.0%})"
                if worse > bound["bound"]:
                    failures.append(f"{workload} {name}: B worse than "
                                    f"A by {worse:.1%} > "
                                    f"{bound['bound']:.0%}")
            print(line)
    for failure in failures:
        print(f"FAIL: {failure}")
    print("compare: " + ("FAIL" if failures else "OK"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
