"""Per-layer metrics: spans from trace.py joined with the program's own counters.

Times come from the spans the benchmark wraps around each layer; counts
come from the same wrappers plus ``NodeCounters`` / ``NetworkStats`` /
``poll_workers()`` snapshots taken at the phase boundaries.  A layer is
a module under ``src/repro/``; a metric that has no meaning on a
workload (the simulator kernel on a socket run) reads 0 there.

The traced build supplies the ``setup.*`` metrics, the traced timed
phase everything else.
"""

import os
from typing import Any, Dict

from benchmarks.e2e.trace import HANDLER, PHASE, Recorder
from benchmarks.e2e.workloads import Bench, worker_cpu_s, worker_peak_rss_mb

_NODE_SUMS = (
    "events_received",
    "events_forwarded",
    "batches",
    "batched_events",
    "filter_evaluations",
    "compile_rebuilds",
    "credit_stalls",
    "credits_granted",
    "control_retransmits",
)


def read_counters(bench: Bench) -> Dict[str, float]:
    """Monotone counters of the live system, for a before/after difference."""
    system = bench.system
    if bench.worker_pids:
        system.sim.poll_workers()  # refresh the proxies' snapshots
    nodes = system.hierarchy.nodes()
    counts: Dict[str, float] = {
        f"node.{name}": sum(getattr(node.counters, name) for node in nodes)
        for name in _NODE_SUMS
    }
    counts["cache.hits"] = sum(node.counters.cache.hits for node in nodes)
    counts["cache.misses"] = sum(node.counters.cache.misses for node in nodes)
    for name in ("events_received", "events_matched", "filter_evaluations", "control_retransmits"):
        counts[f"subscriber.{name}"] = sum(
            getattr(subscriber.counters, name) for subscriber in system.subscribers
        )
    counts["publisher.credit_stalls"] = sum(
        publisher.counters.credit_stalls for publisher in system.publishers
    )
    counts["events_shed"] = system.total_events_shed()
    counts["kernel.steps"] = system.sim.processed_events
    stats = system.network.stats
    counts["network.messages"] = stats.total_messages
    counts["network.bytes"] = stats.total_bytes
    counts["network.dropped"] = stats.dropped_messages
    # Broker processes report through their proxies' snapshots only.
    counts["worker.processed"] = sum(
        node.stat("processed", 0) for node in nodes if hasattr(node, "stat")
    )
    for pid in bench.worker_pids:
        counts[f"worker.cpu.{pid}"] = worker_cpu_s(pid)
    return counts


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    bench: Bench,
    setup: Recorder,
    timed: Recorder,
    before: Dict[str, float],
    after: Dict[str, float],
    driver_cpu_s: float,
) -> Dict[str, float]:
    """Every per-layer metric except the ``driver.*`` ones."""
    system = bench.system
    nodes = system.hierarchy.nodes()
    delta = {name: after[name] - before.get(name, 0) for name in after}
    calls, self_s, counts = timed.sum_calls, timed.sum_self, timed.counts
    phase_s = timed.total_s.get(PHASE, 0.0)
    worker_cpu = [delta[f"worker.cpu.{pid}"] for pid in bench.worker_pids]
    log_files = (
        [os.path.join(bench.log_dir, name) for name in os.listdir(bench.log_dir)]
        if bench.log_dir
        else []
    )
    simulated = bench.spec.runtime == "sim"
    m: Dict[str, Any] = {}

    m["events.reflect.calls"] = calls("events.reflect")
    m["events.reflect.self_s"] = self_s("events.reflect")
    m["events.marshal.calls"] = calls("events.marshal")
    m["events.marshal.self_s"] = self_s("events.marshal")
    m["events.unmarshal.calls"] = calls("events.unmarshal")
    m["events.unmarshal.self_s"] = self_s("events.unmarshal")
    m["events.payload_bytes_mean"] = _ratio(
        counts.get("events.payload_bytes", 0), calls("events.marshal")
    )

    m["overlay.publisher.publish.calls"] = calls("overlay.publisher.publish")
    m["overlay.publisher.publish.self_s"] = self_s("overlay.publisher.publish")
    m["overlay.publisher.refused"] = counts.get("overlay.publisher.refused", 0)
    m["overlay.publisher.credit_stalls"] = delta["publisher.credit_stalls"]

    m["sim.kernel.steps"] = delta["kernel.steps"] if simulated else 0
    m["sim.kernel.self_s"] = self_s("sim.kernel")
    m["sim.kernel.cancelled_pending"] = system.sim.cancelled_pending if simulated else 0
    m["sim.network.send.calls"] = calls("sim.network.send")
    m["sim.network.send.self_s"] = self_s("sim.network.send")
    m["sim.network.sizer.self_s"] = self_s("sim.network.sizer")
    m["sim.network.messages"] = delta["network.messages"] if simulated else 0
    m["sim.network.bytes"] = delta["network.bytes"] if simulated else 0

    prefix = "runtime.asyncio_backend."
    for part in ("encode", "decode", "send"):
        m[f"{prefix}{part}.calls"] = calls(prefix + part)
        m[f"{prefix}{part}.self_s"] = self_s(prefix + part)
    m[prefix + "frame_bytes_mean"] = _ratio(
        counts.get(prefix + "frame_bytes", 0), calls(prefix + "encode")
    )
    m[prefix + "dropped"] = 0 if simulated else delta["network.dropped"]
    m[prefix + "peak_in_flight"] = 0 if simulated else system.network.stats.peak_in_flight
    m[prefix + "loop_busy_share"] = 0.0 if simulated else _ratio(driver_cpu_s, phase_s)
    # The number the ROADMAP's codec decision waits on.
    m[prefix + "codec_cpu_share"] = _ratio(
        self_s(prefix + "encode", prefix + "decode"), driver_cpu_s
    )

    prefix = "runtime.multiprocess_backend."
    m[prefix + "spawn_s"] = bench.spawn_s if bench.worker_pids else 0.0
    m[prefix + "driver_cpu_s"] = driver_cpu_s if bench.worker_pids else 0.0
    m[prefix + "worker_cpu_s"] = sum(worker_cpu)
    m[prefix + "worker_cpu_max_s"] = max(worker_cpu, default=0.0)
    m[prefix + "worker_rss_mb"] = sum(worker_peak_rss_mb(pid) for pid in bench.worker_pids)
    m[prefix + "worker_processed"] = delta["worker.processed"]
    m[prefix + "worker_peak_in_flight"] = max(
        (
            (node.stat("net") or {}).get("peak_in_flight", 0)
            for node in nodes
            if hasattr(node, "stat")
        ),
        default=0,
    )
    m[prefix + "poll_s"] = self_s(prefix + "poll")

    prefix = "overlay.node."
    m[prefix + "receive.calls"] = calls(prefix + "receive")
    m[prefix + "receive.self_s"] = self_s(prefix + "receive")
    for role in ("root", "inner", "leaf"):
        # Brokers match and forward in a drain they defer to themselves.
        m[f"{prefix}{role}.self_s"] = self_s(
            f"{prefix}receive.{role}", f"{prefix}timer.{role}"
        )
    m[prefix + "control.self_s"] = self_s(prefix + "receive.control")
    m[prefix + "events_received"] = delta["node.events_received"]
    m[prefix + "events_forwarded"] = delta["node.events_forwarded"]
    m[prefix + "batch_mean"] = _ratio(delta["node.batched_events"], delta["node.batches"])
    m[prefix + "queue_depth_max"] = counts.get(prefix + "queue_depth_max", 0)

    m["filters.match.calls"] = calls("filters.match")
    m["filters.match.self_s"] = self_s("filters.match")
    m["filters.match.events"] = counts.get("filters.match.events", 0)
    m["filters.match.evaluations"] = delta["node.filter_evaluations"]
    m["filters.cache.hit_ratio"] = _ratio(
        delta["cache.hits"], delta["cache.hits"] + delta["cache.misses"]
    )
    for part in ("insert", "remove"):
        m[f"filters.{part}.calls"] = calls("filters." + part)
        m[f"filters.{part}.self_s"] = self_s("filters." + part)
    m["filters.compiled.rebuilds"] = delta["node.compile_rebuilds"]
    m["filters.covering_index.add.self_s"] = self_s("filters.covering_index.add")
    m["filters.covering_index.discard.self_s"] = self_s("filters.covering_index.discard")
    m["filters.table_size_max"] = max(
        (
            node.stat("table_size", 0) if hasattr(node, "stat") else len(node.table)
            for node in nodes
        ),
        default=0,
    )

    m["core.engine.subscribe.calls"] = calls("core.engine.subscribe")
    m["core.engine.subscribe.self_s"] = self_s("core.engine.subscribe")
    m["core.weakening.self_s"] = self_s("core.weakening")

    m["log.append.calls"] = calls("log.append")
    m["log.append.self_s"] = self_s("log.append")
    m["log.bytes_written"] = sum(os.path.getsize(path) for path in log_files)
    m["log.segments"] = len(log_files)

    m["flow.credit.calls"] = calls("flow.credit")
    m["flow.credit.self_s"] = self_s("flow.credit")
    m["flow.queue.calls"] = calls("flow.queue")
    m["flow.queue.self_s"] = self_s("flow.queue")
    m["flow.credit_stalls"] = delta["node.credit_stalls"] + delta["publisher.credit_stalls"]
    m["flow.grants_sent"] = delta["node.credits_granted"]
    m["flow.events_shed"] = delta["events_shed"]

    m["overlay.channel.frames"] = calls("overlay.channel.send")
    m["overlay.channel.acks"] = calls("overlay.channel.ack")
    m["overlay.channel.retransmits"] = (
        delta["node.control_retransmits"] + delta["subscriber.control_retransmits"]
    )

    prefix = "overlay.subscriber."
    m[prefix + "receive.calls"] = calls(prefix + "receive")
    m[prefix + "receive.self_s"] = self_s(prefix + "receive")
    m[prefix + "filter_evaluations"] = delta["subscriber.filter_evaluations"]
    m[prefix + "matching_rate"] = _ratio(
        delta["subscriber.events_matched"], delta["subscriber.events_received"]
    )
    m[prefix + "handler_s"] = timed.total_s.get(HANDLER, 0.0)

    m["setup.traced_s"] = setup.total_s.get(PHASE, 0.0)
    m["setup.core.engine.subscribe.self_s"] = setup.sum_self("core.engine.subscribe")
    m["setup.core.weakening.self_s"] = setup.sum_self("core.weakening")
    m["setup.filters.insert.self_s"] = setup.sum_self("filters.insert")
    m["setup.filters.covering_index.add.self_s"] = setup.sum_self(
        "filters.covering_index.add"
    )
    m["setup.overlay.node.control.self_s"] = setup.sum_self("overlay.node.receive.control")
    m["setup.sim.kernel.self_s"] = setup.sum_self("sim.kernel")
    return m


def purpose_checks(name: str, m: Dict[str, float], quick: bool) -> Dict[str, bool]:
    """Does the traced run show the workload doing what it was chosen for?

    Not part of correctness: a failed check means the workload needs
    re-sizing (and the README a note), not that a delivery went wrong.
    Shares of the phase are only meaningful at full size.
    """
    filters_share = _ratio(
        sum(
            m[f"filters.{part}.self_s"]
            for part in ("match", "insert", "remove", "covering_index.add", "covering_index.discard")
        ),
        m["driver.traced_s"],
    )
    checks: Dict[str, bool] = {}
    if name.startswith("sim_"):
        checks["untraced share of the phase <= 0.10"] = m["driver.untraced_share"] <= 0.10
    if name == "sim_bib":
        checks["one reflection per event"] = (
            m["events.reflect.calls"] == m["driver.traced_events"]
        )
        checks["no log appends, no credit operations"] = (
            m["log.append.calls"] == 0 and m["flow.credit.calls"] == 0
        )
        if not quick:
            checks["filters <= 10 % of the phase"] = filters_share <= 0.10
    if name == "sim_match_10k":
        checks["no reflection"] = m["events.reflect.calls"] == 0
        if not quick:
            checks["filters >= 25 % of the phase"] = filters_share >= 0.25
    if name == "sim_managed":
        checks["log appends and credit operations happen"] = (
            m["log.append.calls"] > 0 and m["flow.credit.calls"] > 0
        )
    if name == "asyncio_bib":
        checks["codec share of driver CPU is measured"] = (
            m["runtime.asyncio_backend.codec_cpu_share"] > 0
        )
    return checks
