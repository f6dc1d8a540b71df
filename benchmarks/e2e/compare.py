"""Verdict per (workload, end-to-end metric) between two result documents.

    python -m benchmarks.e2e.compare PARENT.json CHANGE.json

Both documents come from ``run.py --out`` (ideally with ``--repeat``).
Direction and bound of each metric are read from ``BENCHMARK.json``:

- ``regressed``  the change's median is worse than the parent's by more
  than the bound;
- ``unresolved`` it is not, but one side's own run-to-run spread
  (interquartile range over median) is wider than the bound, so
  "unchanged" cannot be told from noise — unless every run of the change
  beats every run of the parent, which reads ``improved``;
- ``improved``   the median is better by more than the bound;
- ``unchanged``  otherwise.

Exit status 1 when anything regressed.
"""

import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

BENCHMARK_FILE = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def _spread(runs: List[float]) -> float:
    if len(runs) < 4:
        return 0.0  # too few runs to say anything about spread
    q1, _, q3 = statistics.quantiles(runs, n=4)
    return (q3 - q1) / statistics.median(runs)


def verdict(parent: List[float], change: List[float], better: str, bound: float) -> str:
    lower = better == "lower"
    base = statistics.median(parent)
    worse_by = (statistics.median(change) - base) / base * (1 if lower else -1)
    if worse_by > bound:
        return "regressed"
    if max(_spread(parent), _spread(change)) > bound:
        beats_all = (
            max(change) < min(parent) if lower else min(change) > max(parent)
        )
        return "improved" if beats_all else "unresolved"
    return "improved" if worse_by < -bound else "unchanged"


def compare(
    parent: Dict[str, Any], change: Dict[str, Any], benchmark: Dict[str, Any]
) -> List[Dict[str, Any]]:
    rows = []
    for workload in (entry["name"] for entry in benchmark["workloads"]):
        for metric in benchmark["end_to_end"]:
            cells = [
                document["workloads"].get(workload, {})
                .get("end_to_end", {})
                .get(metric["name"])
                for document in (parent, change)
            ]
            if None in cells:
                continue  # a document made before the metric or workload existed
            runs = [cell.get("runs") or [cell["value"]] for cell in cells]
            rows.append(
                {
                    "workload": workload,
                    "metric": metric["name"],
                    "unit": metric["unit"],
                    "parent": statistics.median(runs[0]),
                    "change": statistics.median(runs[1]),
                    "bound": metric["bound"],
                    "verdict": verdict(runs[0], runs[1], metric["better"], metric["bound"]),
                }
            )
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    documents = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            documents.append(json.load(handle))
    with open(BENCHMARK_FILE, encoding="utf-8") as handle:
        benchmark = json.load(handle)
    rows = compare(documents[0], documents[1], benchmark)
    for row in rows:
        change = (row["change"] - row["parent"]) / row["parent"]
        print(
            f"{row['workload']:14s} {row['metric']:18s} {row['parent']:12.6g} -> "
            f"{row['change']:12.6g} {row['unit']:5s} {change:+7.1%} "
            f"(bound {row['bound']:.2f})  {row['verdict']}"
        )
    regressed = [row for row in rows if row["verdict"] == "regressed"]
    print(f"{len(rows)} pairings, {len(regressed)} regressed")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
