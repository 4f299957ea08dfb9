"""Compare two suite results of the end-to-end round benchmark.

    python3 benchmarks/e2e/compare.py BASE.json NEW.json

``BASE.json`` and ``NEW.json`` are files written by ``run.py --out`` (the
committed baseline is ``benchmarks/e2e/baseline.json``).  One row per
workload and end-to-end metric gives both medians with their quartiles, the
relative change of the median, the metric's bound from ``BENCHMARK.json`` and
a verdict:

* ``worse``      — the median moved the wrong way by more than the bound;
* ``unresolved`` — either side's spread (IQR / median) is wider than the
  bound, so a move of that size cannot be told from noise; the exception is
  a change whose every run reads better than every base run, which is ``ok``;
* ``ok``         — otherwise.

A last row per workload compares ``failed_frac`` (failed ÷ attempted rounds).
The exit code is 1 when any metric is ``worse`` or ``failed_frac`` rose.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from run import load_spec, quartiles


def _failed_frac(entry) -> float:
    records = entry["runs"] + ([entry["traced"]] if entry.get("traced") else [])
    attempted = sum(r["attempted"] for r in records)
    return sum(r["failed"] for r in records) / attempted if attempted else 1.0


def verdict(base, new, better: str, bound: float):
    """(relative change of the median, verdict) for one metric's run values."""
    base_median, base_q1, base_q3 = quartiles(base)
    new_median, new_q1, new_q3 = quartiles(new)
    delta = (new_median - base_median) / base_median
    sign = 1.0 if better == "lower" else -1.0
    spread = max((base_q3 - base_q1) / base_median, (new_q3 - new_q1) / new_median)
    if spread > bound:
        all_better = max(sign * v for v in new) < min(sign * v for v in base)
        return delta, "ok" if all_better else "unresolved"
    return delta, "worse" if sign * delta > bound else "ok"


def compare(base: dict, new: dict, spec: dict):
    """Rows of (workload, metric, base, new, delta, bound, verdict) and the exit code."""
    rows, status = [], 0
    for name, base_entry in base["workloads"].items():
        new_entry = new["workloads"].get(name)
        if new_entry is None:
            continue
        for metric in spec["end_to_end"]:
            key = metric["name"]
            base_values = [r["metrics"][key] for r in base_entry["runs"] if r["correct"]]
            new_values = [r["metrics"][key] for r in new_entry["runs"] if r["correct"]]
            if not base_values or not new_values:
                rows.append((name, key, base_values, new_values, None, metric["bound"], "missing"))
                continue
            delta, result = verdict(base_values, new_values, metric["better"], metric["bound"])
            status |= result == "worse"
            rows.append((name, key, base_values, new_values, delta, metric["bound"], result))
        base_failed, new_failed = _failed_frac(base_entry), _failed_frac(new_entry)
        result = "worse" if new_failed > base_failed else "ok"
        status |= result == "worse"
        rows.append((name, "failed_frac", [base_failed], [new_failed], new_failed - base_failed, 0.0, result))
    return rows, int(status)


def _cell(values) -> str:
    median, q1, q3 = quartiles(values)
    return f"{median:.5g} [{q1:.5g}, {q3:.5g}]"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    base, new = (json.loads(Path(path).read_text()) for path in argv)
    rows, status = compare(base, new, load_spec())
    print(f"{'workload':<12} {'metric':<14} {'base median [q1, q3]':<34} {'new median [q1, q3]':<34} "
          f"{'delta':>8} {'bound':>6}  verdict")
    for name, key, base_values, new_values, delta, bound, result in rows:
        base_cell = _cell(base_values) if base_values else "-"
        new_cell = _cell(new_values) if new_values else "-"
        change = f"{delta:+.2%}" if delta is not None else "-"
        print(f"{name:<12} {key:<14} {base_cell:<34} {new_cell:<34} {change:>8} {bound:>6.0%}  {result}")
    return status


if __name__ == "__main__":
    sys.exit(main())
