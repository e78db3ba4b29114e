"""Compare two ledgers written by ``run.py --json``.

    python benchmarks/ledger/compare.py A.json B.json

A is the parent, B the change. One row per (end-to-end metric,
workload), each judged against that metric's bound in ``BENCHMARK.json``:

``regression``  B's median is worse than A's by more than the bound
``unresolved``  run-to-run spread on either side exceeds the bound, and
                the runs of B do not all read better than all runs of A
``improved``    every run of B reads better than every run of A, and the
                medians differ by more than A's own spread
``unchanged``   otherwise

Exits 1 on any regression, or when B fails a larger share of its
operations than A on some workload.
"""

from __future__ import annotations

import json
import statistics
import sys

import harness


def spread(values: list[float]) -> float:
    """Run-to-run spread as a share of the median: the quartile
    distance from four runs up, the full range below that."""
    middle = statistics.median(values)
    if len(values) < 2 or not middle:
        return 0.0
    if len(values) >= 4:
        quartiles = statistics.quantiles(values, n=4)
        return (quartiles[2] - quartiles[0]) / abs(middle)
    return (max(values) - min(values)) / abs(middle)


def judge(a: list[float], b: list[float], better: str,
          bound: float) -> tuple[str, float]:
    """The verdict and how much worse B's median is than A's, as a
    share of A's (negative: better)."""
    median_a, median_b = statistics.median(a), statistics.median(b)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = (sign * (median_b - median_a) / abs(median_a)
                if median_a else 0.0)
    if worse_by > bound:
        return "regression", worse_by
    wins = (max(b) < min(a)) if better == "lower" else (min(b) > max(a))
    if wins and -worse_by > spread(a):
        return "improved", worse_by
    if max(spread(a), spread(b)) > bound and not wins:
        return "unresolved", worse_by
    return "unchanged", worse_by


def values_of(ledger: dict, workload: str, name: str) -> list[float]:
    runs = ledger["workloads"].get(workload, {}).get("end_to_end_runs", [])
    return [run["metrics"][name]["value"] for run in runs
            if run["metrics"].get(name, {}).get("value") is not None]


def failed_share(ledger: dict, workload: str) -> float:
    runs = ledger["workloads"].get(workload, {}).get("end_to_end_runs", [])
    attempted = sum(run["attempted"] for run in runs)
    return sum(run["failed"] for run in runs) / attempted if attempted else 0.0


def compare(a: dict, b: dict, declared: dict, out=sys.stdout) -> int:
    status = 0
    out.write(f"{'workload':18s} {'metric':18s} {'A median':>12s} "
              f"{'B median':>12s} {'worse by':>9s} {'spread A':>9s} "
              f"{'spread B':>9s} {'bound':>6s}  verdict\n")
    for workload in harness.WORKLOADS:
        if workload not in a["workloads"] or workload not in b["workloads"]:
            continue
        for metric in declared["end_to_end"]:
            name = metric["name"]
            left = values_of(a, workload, name)
            right = values_of(b, workload, name)
            if not left or not right:
                continue
            verdict, worse_by = judge(left, right, metric["better"],
                                      metric["bound"])
            if verdict == "regression":
                status = 1
            out.write(
                f"{workload:18s} {name:18s} "
                f"{statistics.median(left):12.5g} "
                f"{statistics.median(right):12.5g} {worse_by * 100:8.1f}% "
                f"{spread(left) * 100:8.1f}% {spread(right) * 100:8.1f}% "
                f"{metric['bound'] * 100:5.0f}%  {verdict}\n")
        share_a, share_b = failed_share(a, workload), failed_share(b, workload)
        if share_b > share_a:
            status = 1
            out.write(f"{workload:18s} failed share rose from "
                      f"{share_a:.4%} to {share_b:.4%}\n")
    return status


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    with open(argv[0]) as left, open(argv[1]) as right:
        return compare(json.load(left), json.load(right),
                       harness.load_declaration())


if __name__ == "__main__":
    sys.exit(main())
