"""Smoke test of the end-to-end benchmark at ``--quick`` size.

Collected by ``pytest benchmarks --benchmark-disable`` (the CI benchmark
job), not by tier-1 (``testpaths = ["tests"]``).  It checks the harness,
not the numbers: every workload and metric that ``BENCHMARK.json`` names
comes out, with its unit, from a run whose deliveries the oracle found
exactly right.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.e2e.compare import verdict
from benchmarks.e2e.run import (
    ALIAS_OF,
    ONLY_ON,
    QUICK_SECONDS,
    applies,
    contract_line,
    load_benchmark,
    run_workload,
)
from benchmarks.e2e.workloads import SPECS, WORK_DIR, apportion

BENCHMARK = load_benchmark()
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_file_meets_the_contract():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert BENCHMARK["paths"] == ["benchmarks/e2e"]
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(SPECS)
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in BENCHMARK[key]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in BENCHMARK["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
    for metric in BENCHMARK["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in BENCHMARK["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = [m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])
    # A copy may not be what flags a change: no wider a bound than its original.
    entries = {m["name"]: m for m in BENCHMARK["end_to_end"]}
    assert set(ALIAS_OF) == set(ONLY_ON) and set(ONLY_ON) < set(entries)
    for copy, original in ALIAS_OF.items():
        assert original not in ONLY_ON
        assert entries[copy]["unit"] == entries[original]["unit"]
        assert entries[copy]["better"] == entries[original]["better"]
        assert entries[copy]["bound"] >= entries[original]["bound"]


@pytest.mark.parametrize("traced", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("name", sorted(SPECS))
def test_quick_run_is_correct_and_complete(name, traced):
    cpus = os.sched_getaffinity(0)
    result = run_workload(name, seed=1, seconds=QUICK_SECONDS, trace=traced, quick=True)
    assert os.sched_getaffinity(0) == cpus  # the driver's pin does not outlive the run
    assert result["correct"], (result["failures"], result["examples"])
    assert result["failed"] == 0 and result["attempted"] > 0
    declared = BENCHMARK["per_layer" if traced else "end_to_end"]
    if not traced:
        # Left out exactly where declared not to exist, and never 0.
        assert set(result["metrics"]) == {
            metric["name"] for metric in declared if applies(metric["name"], name)
        }
        assert all(value > 0 for value in result["metrics"].values()), result["metrics"]
    line = json.loads(contract_line(result, BENCHMARK))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == {metric["name"] for metric in declared}
    for metric in declared:
        cell = line["metrics"][metric["name"]]
        assert cell["unit"] == metric["unit"]
        assert isinstance(cell["value"], (int, float))
    # The workload does what it was chosen for (what is checkable at this size).
    assert all(result["purpose"].values()), result["purpose"]
    assert not WORK_DIR.exists() or not any(WORK_DIR.iterdir())


def _session_members(session: int) -> list:
    members = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as stat:
                    fields = stat.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            if int(fields[3]) == session:
                members.append((int(entry), fields[0]))
    return members


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs procfs")
def test_a_run_leaves_no_process_behind():
    # Not a broker process, and not multiprocessing's resource tracker,
    # which ends on its own but after the run, unwaited: a zombie.
    run = Path(__file__).resolve().parent / "run.py"
    process = subprocess.Popen(
        [sys.executable, str(run), "--workload", "mp_bib", "--quick", "--seed", "1"],
        stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    output, _ = process.communicate(timeout=120)
    assert process.returncode == 0
    assert json.loads(output.strip().splitlines()[-1])["correct"]
    assert _session_members(process.pid) == []  # its pid names its session


def test_apportion_deals_every_seat_in_proportion():
    assert apportion([3.0, 2.0, 1.0], 12) == [6, 4, 2]
    shares = apportion([1.0 / (rank + 1) ** 0.9 for rank in range(1500)], 1000)
    assert sum(shares) == 1000 and shares == sorted(shares, reverse=True)


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert verdict(steady, [v * 1.02 for v in steady], "lower", 0.10) == "unchanged"
    assert verdict(steady, [v * 1.20 for v in steady], "lower", 0.10) == "regressed"
    assert verdict(steady, [v * 1.20 for v in steady], "higher", 0.10) == "improved"
    noisy = [100.0, 140.0, 80.0, 120.0, 60.0]
    assert verdict(noisy, [v * 1.02 for v in noisy], "lower", 0.10) == "unresolved"
    assert verdict(noisy, [30.0, 35.0, 40.0, 45.0, 50.0], "lower", 0.10) == "improved"
