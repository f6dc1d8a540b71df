"""End-to-end publish->deliver benchmark: the one command.

    PYTHONPATH=src python -m benchmarks.e2e.run [--workload W] [--seed N]
        [--seconds S] [--trace] [--quick] [--repeat N] [--out FILE]

With ``--workload`` it makes one run of one workload and prints, as the
last line of standard output, the result object the benchmark driver
reads (``correct``, ``attempted``, ``failed``, ``metrics``): the
end-to-end metrics of ``BENCHMARK.json``, or with ``--trace 1`` its
per-layer metrics.  Without ``--workload`` it runs all six, each in a
process of its own (peak memory is per workload), prints every metric
by name with its unit and writes one JSON document.

All traffic crosses the host's loopback interface only; nothing here
says anything about a real network.
"""

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

# benchmarks.e2e first: importing it puts src/ on the path for repro.
from benchmarks.e2e.layers import layer_metrics, purpose_checks, read_counters  # noqa: E402
from benchmarks.e2e.trace import PHASE, Recorder, Tracer  # noqa: E402
from benchmarks.e2e.workloads import (  # noqa: E402
    SPECS,
    Bench,
    SegmentResult,
    reap,
    worker_peak_rss_mb,
)
from repro.metrics.latency import percentile  # noqa: E402

BENCHMARK_FILE = ROOT / "BENCHMARK.json"

#: A run must end inside the driver's 180 s, cleanly, whatever hangs:
#: after the limit the run is torn down, and if the tear-down hangs as
#: well the process sweeps up and leaves.
HARD_TIMEOUT_S = 165
TEARDOWN_GRACE_S = 10
SETUP_REPEATS = 3
MIN_BURST_SEGMENTS = 3
#: Memory is read after this much work, the same on every commit; a
#: faster program fits more segments into ``--seconds`` and the state it
#: keeps per event (delivery logs, durable log index) would read as a
#: regression if memory were read at the end.
RSS_AFTER_SEGMENTS = MIN_BURST_SEGMENTS
#: A paced segment whose generator ran later than this (p99) measured
#: the box's scheduler; it is dropped and run again.
LATE_LIMIT_MS = 20.0
LATE_RERUNS = 2
QUICK_SECONDS = 0.4

#: End-to-end metrics that exist on some workloads only.  Elsewhere they
#: are left out of the results, never reported as 0 or by a stand-in.
ONLY_ON = {"sub_ops_per_s": ("sim_churn",)}  # needs subscriptions that come and go
#: The benchmark driver takes no result object without every end-to-end
#: metric in it (DRIVER_CONTRACT.md).  Where one does not exist, its cell
#: repeats, under the name the driver insists on, a metric of the same
#: run that does: same unit, same direction, and a bound no wider, so the
#: copy worsens past its bound only when the original has.  It is not a
#: measurement of its own and appears nowhere but in that object.
ALIAS_OF = {"sub_ops_per_s": "events_per_s"}


def applies(metric: str, workload: str) -> bool:
    return workload in ONLY_ON.get(metric, (workload,))


def load_benchmark() -> Dict[str, Any]:
    with open(BENCHMARK_FILE, encoding="utf-8") as handle:
        return json.load(handle)


def _ms(seconds: float) -> float:
    return seconds * 1e3


# ----------------------------------------------------------------------
# One run of one workload
# ----------------------------------------------------------------------


def _burst_phase(
    bench: Bench, budget_s: float, min_segments: int, after_segment=None
) -> List[SegmentResult]:
    """Segments of the workload's timed kind until ``budget_s`` of timed
    work is done (and at least ``min_segments``)."""
    results: List[SegmentResult] = []
    spent = 0.0
    while len(results) < min_segments or spent < budget_s:
        result = bench.segment(bench.spec.timed_kind)
        results.append(result)
        spent += result.timed_s
        if after_segment is not None:
            after_segment(len(results))
    return results


def _paced_phase(bench: Bench, budget_s: float) -> Tuple[List[SegmentResult], int]:
    wanted = max(1, int(budget_s / bench.paced_seconds + 0.5))
    results: List[SegmentResult] = []
    reruns = 0
    while len(results) < wanted:
        result = bench.segment("paced")
        if (
            reruns < LATE_RERUNS
            and result.late_s
            and _ms(percentile(result.late_s, 0.99)) > LATE_LIMIT_MS
        ):
            reruns += 1
            continue
        results.append(result)
    return results, reruns


def _peak_rss_mb(bench: Bench) -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return own + sum(worker_peak_rss_mb(pid) for pid in bench.worker_pids)


# Which segment of a run is reported: the best one.  This box slows down
# by a third for seconds at a time (a pure-Python spin reads 58 or 83 ns
# per iteration from one second to the next), so the median segment of a
# run is a fast or a slow one by chance: over ten runs of ``asyncio_bib``
# the median segments spread by 26 % of their median, the upper quartiles
# by 10 %, the best segments by 4.5 %.  Segments carry the same number of
# events and of expected deliveries and interference only ever slows one
# down, so the best segment is the least disturbed one, not a lucky one.


def _throughput(results: List[SegmentResult]) -> float:
    return max(r.events / r.wall_s for r in results)


def _cpu_ms_per_event(results: List[SegmentResult]) -> float:
    return min(_ms(r.cpu_s) / r.events for r in results)


def _latency_ms(results: List[SegmentResult], q: float) -> float:
    """Each paced segment's percentile over its deliveries; the lowest."""
    return min(_ms(percentile(r.latencies_s, q)) for r in results)


def _diagnostics(
    bench: Bench, timed: List[SegmentResult], paced: List[SegmentResult], reruns: int
) -> Dict[str, float]:
    """The ``driver.*`` numbers every run has: about the benchmark, not
    the program, and therefore without bounds.  The latency ones are of
    the paced phase and read 0 where there is none."""
    latencies = [s for r in paced for s in r.latencies_s]
    late = [s for r in paced for s in r.late_s]
    return {
        "driver.latency_p50_ms": _latency_ms(paced, 0.50) if paced else 0.0,
        "driver.latency_p90_ms": _latency_ms(paced, 0.90) if paced else 0.0,
        "driver.latency_p99_ms": _ms(percentile(latencies, 0.99)) if paced else 0.0,
        "driver.latency_max_ms": _ms(max(latencies)) if paced else 0.0,
        "driver.latency_samples": len(latencies),
        "driver.generator_late_p99_ms": _ms(percentile(late, 0.99)) if paced else 0.0,
        "driver.paced_reruns": reruns,
        "driver.deliveries_per_event": sum(r.deliveries for r in timed)
        / sum(r.events for r in timed),
        "driver.burst_segments": len(timed),
        "driver.oracle_s": bench.oracle_s,
        "driver.failed_ratio": bench.tally.failed_ratio,
    }


def _untraced_run(
    bench: Bench, seconds: float, quick: bool
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """End-to-end metrics: three set-ups, paced phase (sockets), bursts."""
    socket = bench.spec.runtime != "sim"
    setups: List[float] = []
    for _ in range(1 if quick else SETUP_REPEATS):
        bench.close_system()
        bench.build()
        setups.append(bench.setup_s)
    paced, reruns = _paced_phase(bench, seconds * 0.5) if socket else ([], 0)
    rss: List[float] = []

    def note_rss(done: int) -> None:
        if done == RSS_AFTER_SEGMENTS:
            rss.append(_peak_rss_mb(bench))

    bursts = _burst_phase(
        bench,
        seconds * (0.5 if socket else 1.0),
        1 if quick else MIN_BURST_SEGMENTS,
        note_rss,
    )
    bench.settle()
    metrics = {
        "setup_s": statistics.median(setups),
        "events_per_s": _throughput(bursts),
        "cpu_ms_per_event": _cpu_ms_per_event(bursts),
        "peak_rss_mb": rss[0] if rss else _peak_rss_mb(bench),
    }
    if bench.spec.churn_ops:
        metrics["sub_ops_per_s"] = max(r.ops / r.ops_wall_s for r in bursts)
    return metrics, _diagnostics(bench, bursts, paced, reruns)


def _traced_run(
    bench: Bench, seconds: float, spans: Optional[str]
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Per-layer metrics: one traced set-up (``setup.*``), an untraced
    slice of the timed phase for reference, then the traced slice."""
    socket = bench.spec.runtime != "sim"
    recorder = bench.recorder
    setup = Recorder()
    with Tracer(setup, root=True):
        bench.build()
    paced, reruns = _paced_phase(bench, seconds * 0.25) if socket else ([], 0)
    reference = _burst_phase(bench, seconds * (0.25 if socket else 0.3), 2)
    before = read_counters(bench)
    cpu_before = time.process_time()
    with Tracer(recorder, bench.system):
        bursts = _burst_phase(bench, seconds * (0.5 if socket else 0.7), 2)
    driver_cpu_s = time.process_time() - cpu_before
    after = read_counters(bench)
    bench.settle()
    metrics = layer_metrics(bench, setup, recorder, before, after, driver_cpu_s)
    phase_s = recorder.total_s[PHASE]
    metrics["driver.traced_s"] = phase_s
    metrics["driver.traced_events"] = sum(r.events for r in bursts)
    metrics["driver.untraced_share"] = recorder.self_s[PHASE] / phase_s
    metrics["driver.tracing_overhead_ratio"] = _throughput(bursts) / _throughput(reference)
    if spans:
        recorder.write_jsonl(spans)
    diagnostics = _diagnostics(bench, bursts, paced, reruns)
    metrics.update(diagnostics)
    return metrics, diagnostics


def run_workload(
    name: str,
    seed: int = 0,
    seconds: float = 10.0,
    trace: bool = False,
    quick: bool = False,
    engine: Optional[str] = None,
    spans: Optional[str] = None,
) -> Dict[str, Any]:
    """One run of one workload, torn down whatever happens.

    ``metrics`` holds the end-to-end metrics of an untraced run (those
    that exist on the workload, see ``ONLY_ON``) or the per-layer metrics
    of a traced one.
    """
    recorder = Recorder(keep_spans=200_000 if spans else 0) if trace else None
    bench = Bench(SPECS[name], seed, quick, engine, recorder)
    try:
        if trace:
            metrics, diagnostics = _traced_run(bench, seconds, spans)
        else:
            metrics, diagnostics = _untraced_run(bench, seconds, quick)
    finally:
        bench.close_system()
    tally = bench.tally
    return {
        "workload": name,
        "seed": seed,
        "traced": trace,
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": {
            "missing": tally.missing,
            "duplicate": tally.duplicate,
            "unexpected": tally.unexpected,
            "refused": tally.refused,
            "harness": tally.harness,
        },
        "examples": bench.examples[:5],
        "purpose": purpose_checks(name, metrics, quick) if trace else {},
        "metrics": metrics,
        "diagnostics": diagnostics,
    }


def contract_line(result: Dict[str, Any], benchmark: Dict[str, Any]) -> str:
    """The driver's result object: exactly the declared metrics, a cell
    for every one (see ``ALIAS_OF``)."""
    measured = result["metrics"]
    metrics = {}
    for entry in benchmark["per_layer" if result["traced"] else "end_to_end"]:
        name = entry["name"]
        value = measured[name if name in measured else ALIAS_OF[name]]
        metrics[name] = {"value": value, "unit": entry["unit"]}
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
        }
    )


def print_result(result: Dict[str, Any], benchmark: Dict[str, Any]) -> None:
    name = result["workload"]
    units = {
        entry["name"]: entry["unit"]
        for key in ("end_to_end", "per_layer")
        for entry in benchmark[key]
    }
    print(f"# {name} seed={result['seed']} traced={int(result['traced'])} (loopback only)")
    shown = dict(result["metrics"])
    shown.update(result["diagnostics"])
    for metric, value in shown.items():
        print(f"{name:14s} {metric:52s} {value:14.6g} {units.get(metric, '')}")
    print(
        f"{name:14s} attempted={result['attempted']} failed={result['failed']} "
        f"{result['failures']}"
    )
    for example in result["examples"]:
        print(f"{name:14s} FAILURE {example}")
    for check, met in result["purpose"].items():
        print(f"{name:14s} purpose: {check}: {'met' if met else 'NOT MET'}")


# ----------------------------------------------------------------------
# All workloads, repeats, the JSON document
# ----------------------------------------------------------------------


def _child(args: argparse.Namespace, name: str, seed: int, trace: bool) -> Dict[str, Any]:
    """One run in a process of its own, killed with everything it
    started when it overstays."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--workload", name,
        "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(int(trace)),
        "--json",
    ]
    if args.quick:
        command.append("--quick")
    if args.engine:
        command += ["--engine", args.engine]
    process = subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        output, _ = process.communicate(timeout=HARD_TIMEOUT_S + 10)
    except (subprocess.TimeoutExpired, KeyboardInterrupt):
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        raise
    lines = output.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{name}: run exited with {process.returncode} and no result")
    return json.loads(lines[-1])


def _git_commit() -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None if done.returncode == 0 else None


def _numpy_version() -> Optional[str]:
    try:
        import numpy
    except ImportError:
        return None
    return numpy.__version__


def summarize(values: List[float]) -> Dict[str, float]:
    """Median, quartiles, and the two spreads the bounds are set from."""
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return {"median": median, "q1": median, "q3": median, "iqr_share": 0.0, "range_share": 0.0}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "iqr_share": (q3 - q1) / median,
        "range_share": (max(values) - min(values)) / median,
    }


def run_all(args: argparse.Namespace, benchmark: Dict[str, Any]) -> int:
    names = [entry["name"] for entry in benchmark["workloads"]]
    document: Dict[str, Any] = {
        "benchmark": "benchmarks/e2e",
        "commit": _git_commit(),
        "seed": args.seed,
        "seconds": args.seconds,
        "quick": args.quick,
        "repeat": args.repeat,
        "engine_override": args.engine,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": _numpy_version(),
        "network": "loopback only",
        "workloads": {},
    }
    failed = 0
    units = {entry["name"]: entry["unit"] for entry in benchmark["per_layer"]}
    for name in names:
        runs = [
            _child(args, name, args.seed + index, trace=False) for index in range(args.repeat)
        ]
        for result in runs:
            print_result(result, benchmark)
            failed += result["failed"]
        row: Dict[str, Any] = {
            "end_to_end": {},
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "diagnostics": {},
        }

        def record(into: str, metric: str, values: List[float], unit: str, bound: str) -> None:
            summary = summarize(values)
            row[into][metric] = {"value": summary["median"], "unit": unit, "runs": values}
            if args.repeat > 1 and any(values):
                print(
                    f"{name:14s} {metric:28s} median {summary['median']:.6g} "
                    f"q1 {summary['q1']:.6g} q3 {summary['q3']:.6g} "
                    f"iqr/median {summary['iqr_share']:.3f} "
                    f"range/median {summary['range_share']:.3f} ({bound})"
                )

        for entry in benchmark["end_to_end"]:
            if applies(entry["name"], name):
                values = [r["metrics"][entry["name"]] for r in runs]
                record("end_to_end", entry["name"], values, entry["unit"], f"bound {entry['bound']}")
        for metric in runs[0]["diagnostics"]:
            values = [r["diagnostics"][metric] for r in runs]
            record("diagnostics", metric, values, units[metric], "no bound")
        if args.trace:
            traced = _child(args, name, args.seed, trace=True)
            print_result(traced, benchmark)
            failed += traced["failed"]
            row["per_layer"] = {
                entry["name"]: {"value": traced["metrics"][entry["name"]], "unit": entry["unit"]}
                for entry in benchmark["per_layer"]
            }
        document["workloads"][name] = row
    # This issue defines the benchmark and claims no gain.
    document["claim"] = None
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1)
            handle.write("\n")
    return 1 if failed else 0


class HardTimeout(SystemExit):
    """The run overstayed.  A ``SystemExit``, not an ``Exception``:
    asyncio logs and swallows anything else raised inside a callback, and
    a loop that never goes idle is what the limit is for."""


_overstayed = False


def _on_alarm(signum, frame):
    global _overstayed
    if _overstayed:  # the tear-down hangs as well
        reap()
        os._exit(1)
    _overstayed = True
    signal.alarm(TEARDOWN_GRACE_S)
    raise HardTimeout(
        "terminated" if signum == signal.SIGTERM
        else f"run exceeded the hard limit of {HARD_TIMEOUT_S} s"
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, default=0, help="draws the traffic")
    parser.add_argument("--seconds", type=float, help="timed work per run (default 10)")
    parser.add_argument(
        "--trace", nargs="?", type=int, choices=(0, 1), const=1, default=0,
        help="per-layer pass (alone with --workload, in addition without)",
    )
    parser.add_argument("--quick", action="store_true", help="every workload at ~1/20 size")
    parser.add_argument("--repeat", type=int, default=1, help="runs per workload, seeds seed..")
    parser.add_argument("--out", help="write the JSON document here (all-workload mode)")
    parser.add_argument("--spans", help="write the traced run's spans here as JSONL")
    parser.add_argument(
        "--engine", choices=("index", "table", "compiled"),
        help="exploratory override; no named workload sets it",
    )
    parser.add_argument("--json", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = QUICK_SECONDS if args.quick else 10.0
    benchmark = load_benchmark()
    if args.workload is None:
        return run_all(args, benchmark)

    signal.signal(signal.SIGALRM, _on_alarm)
    signal.signal(signal.SIGTERM, _on_alarm)  # told to stop: the same way out
    signal.alarm(HARD_TIMEOUT_S)
    try:
        result = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), args.quick,
            args.engine, args.spans,
        )
    finally:
        signal.alarm(0)
        reap()
    if args.json:
        print(json.dumps(result))
    else:
        print_result(result, benchmark)
        if not result["traced"]:
            for metric, original in ALIAS_OF.items():
                if metric not in result["metrics"]:
                    print(
                        f"{args.workload:14s} {metric} does not exist on this workload; "
                        f"the result object repeats {original} in its place"
                    )
        print(contract_line(result, benchmark))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
