"""Compare two benchmark records: ``perf/compare.py OLD.json NEW.json``.

Both files are records written by ``python3 perf/run.py --out`` (ideally
``--repeat 10``).  For every (workload, end-to-end metric) pair the medians
are compared under the bound BENCHMARK.json fixes for the metric, and one
row is printed with the verdict:

``improved``    better than OLD by more than the bound
``same``        within the bound
``regressed``   worse than OLD by more than the bound
``unresolved``  OLD's own run-to-run spread (interquartile range over its
                median) is wider than the bound, so the difference cannot
                be told from noise — unless every NEW run is better (or
                every one worse) than every OLD run

Every change is given relative to OLD's median (the base).  Exits non-zero
on any ``regressed`` row or when a workload's ``failed_share`` rose.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def spread(values: list) -> float:
    """Interquartile range as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(old: list, new: list, better: str, bound: float):
    """``(verdict, worsening)``; worsening is relative to OLD's median,
    positive when NEW is worse."""
    sign = 1.0 if better == "lower" else -1.0
    old_median = statistics.median(old)
    worsening = sign * (statistics.median(new) - old_median) / old_median
    if spread(old) > bound:
        if all(sign * n < sign * o for n in new for o in old):
            return "improved", worsening
        if all(sign * n > sign * o for n in new for o in old) \
                and worsening > bound:
            return "regressed", worsening
        return "unresolved", worsening
    if worsening > bound:
        return "regressed", worsening
    if worsening < -bound:
        return "improved", worsening
    return "same", worsening


def compare(old: dict, new: dict, spec: dict) -> tuple[list, bool]:
    """Rows ``(workload, metric, old, new, unit, worsening, n_old, n_new,
    verdict)`` and whether anything failed the comparison."""
    rows, failed = [], False
    for workload in (w["name"] for w in spec["workloads"]):
        a = old["workloads"].get(workload)
        b = new["workloads"].get(workload)
        if a is None or b is None:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            old_values = _values(a, name)
            new_values = _values(b, name)
            if not old_values or not new_values:
                rows.append((workload, name, None, None, metric["unit"],
                             None, len(old_values), len(new_values),
                             "unresolved"))
                continue
            result, worsening = verdict(old_values, new_values,
                                        metric["better"], metric["bound"])
            failed = failed or result == "regressed"
            rows.append((workload, name, statistics.median(old_values),
                         statistics.median(new_values), metric["unit"],
                         worsening, len(old_values), len(new_values), result))
        rose = b["failed_share"] > a["failed_share"]
        failed = failed or rose
        rows.append((workload, "failed_share", a["failed_share"],
                     b["failed_share"], "ratio", None, 1, 1,
                     "regressed" if rose else "same"))
    return rows, failed


def _values(entry: dict, metric: str) -> list:
    values = entry["metrics"].get(metric, {}).get("values", [])
    return [v for v in values if v is not None]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    with open(argv[0]) as fh:
        old = json.load(fh)
    with open(argv[1]) as fh:
        new = json.load(fh)
    with open(SPEC_PATH) as fh:
        spec = json.load(fh)
    for label, record in (("OLD", old), ("NEW", new)):
        fp = record.get("fingerprint", {})
        note = " NOISY (load > nproc/2 at start)" if fp.get("noisy") else ""
        print(f"# {label}: git {fp.get('git_sha')}, numpy {fp.get('numpy')}, "
              f"nproc {fp.get('nproc')}, seeds {record.get('seed')}.."
              f"{record.get('seed', 0) + record.get('repeat', 1) - 1}{note}")
    rows, failed = compare(old, new, spec)
    print(f"{'workload':<20}{'metric':<20}{'OLD median':>14}"
          f"{'NEW median':>14}  {'unit':<14}{'worse by':>10}  runs   verdict")
    for (workload, metric, a, b, unit, worsening, n_old, n_new,
         result) in rows:
        shown_a = "-" if a is None else f"{a:.6g}"
        shown_b = "-" if b is None else f"{b:.6g}"
        change = "-" if worsening is None else f"{worsening:+.1%}"
        print(f"{workload:<20}{metric:<20}{shown_a:>14}{shown_b:>14}  "
              f"{unit:<14}{change:>10}  {n_old}/{n_new:<4} {result}")
    print("# 'worse by' is relative to the OLD median; negative = better")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
