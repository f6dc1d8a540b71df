"""Plain-text renderers for experiment output.

The benchmark harness prints the same rows/series the paper reports; a
couple of small formatters keep that output consistent everywhere.
"""

from typing import Any, Iterable, List, Sequence, Tuple

from repro.metrics.counters import NodeCounters


def format_number(value: Any) -> str:
    """Compact scientific-ish formatting matching the paper's table style."""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, int):
        return str(value)
    if value == 0:
        return "0"
    magnitude = abs(value)
    if magnitude >= 0.01 or magnitude == 0:
        return f"{value:.4g}"
    return f"{value:.2e}"


def render_table(headers: Sequence[str], rows: Iterable[Sequence[Any]]) -> str:
    """Render an aligned plain-text table."""
    formatted_rows: List[List[str]] = [
        [format_number(cell) for cell in row] for row in rows
    ]
    widths = [len(h) for h in headers]
    for row in formatted_rows:
        for column, cell in enumerate(row):
            widths[column] = max(widths[column], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells)).rstrip()

    out = [line(list(headers)), line(["-" * w for w in widths])]
    out.extend(line(row) for row in formatted_rows)
    return "\n".join(out)


def aggregate_aggregation_counters(
    counters: Iterable[NodeCounters],
) -> dict:
    """Fold per-node covering-aggregation counters into totals."""
    totals = {
        "req_inserts_sent": 0,
        "withdrawals_sent": 0,
        "propagations_suppressed": 0,
        "uncover_repropagations": 0,
        "propagated_filters": 0,
    }
    for counter in counters:
        totals["req_inserts_sent"] += counter.req_inserts_sent
        totals["withdrawals_sent"] += counter.withdrawals_sent
        totals["propagations_suppressed"] += counter.propagations_suppressed
        totals["uncover_repropagations"] += counter.uncover_repropagations
        totals["propagated_filters"] += counter.propagated_filters
    attempts = totals["req_inserts_sent"] + totals["propagations_suppressed"]
    totals["suppression_rate"] = (
        totals["propagations_suppressed"] / attempts if attempts else 0.0
    )
    return totals


def aggregate_reliability_counters(
    counters: Iterable[NodeCounters],
) -> dict:
    """Fold per-node reliable-channel counters into totals."""
    totals = {"control_retransmits": 0, "control_dups_discarded": 0}
    for counter in counters:
        totals["control_retransmits"] += counter.control_retransmits
        totals["control_dups_discarded"] += counter.control_dups_discarded
    return totals


def render_reliability_summary(
    named_counters: Iterable[Tuple[str, NodeCounters]],
    title: str = "Reliable control channel",
) -> str:
    """Per-location retransmit / duplicate-discard counters + totals."""
    rows: List[List[Any]] = []
    all_counters: List[NodeCounters] = []
    for name, counter in named_counters:
        all_counters.append(counter)
        rows.append(
            [name, counter.control_retransmits, counter.control_dups_discarded]
        )
    totals = aggregate_reliability_counters(all_counters)
    rows.append(
        ["TOTAL", totals["control_retransmits"], totals["control_dups_discarded"]]
    )
    table = render_table(["Location", "Retransmits", "Dup frames dropped"], rows)
    return f"{title}\n{table}"


def aggregate_flow_counters(
    counters: Iterable[NodeCounters],
) -> dict:
    """Fold per-node flow-control counters into system-wide totals."""
    totals = {
        "events_shed": 0,
        "sheds_by_reason": {},
        "credits_granted": 0,
        "credit_stalls": 0,
        "rate_limited": 0,
        "overload_transitions": 0,
    }
    for counter in counters:
        totals["events_shed"] += counter.events_shed
        for reason, count in counter.sheds_by_reason.items():
            totals["sheds_by_reason"][reason] = (
                totals["sheds_by_reason"].get(reason, 0) + count
            )
        totals["credits_granted"] += counter.credits_granted
        totals["credit_stalls"] += counter.credit_stalls
        totals["rate_limited"] += counter.rate_limited
        totals["overload_transitions"] += counter.overload_transitions
    return totals


def render_flow_summary(
    named_counters: Iterable[Tuple[str, NodeCounters]],
    title: str = "Flow control / overload protection",
) -> str:
    """Per-location shed/credit/overload counters, plus a totals row.

    The per-reason shed breakdown is appended below the table (reasons
    sorted by name so the output is deterministic)."""
    rows: List[List[Any]] = []
    all_counters: List[NodeCounters] = []
    for name, counter in named_counters:
        all_counters.append(counter)
        rows.append(
            [
                name,
                counter.events_shed,
                counter.credits_granted,
                counter.credit_stalls,
                counter.rate_limited,
                counter.overload_transitions,
            ]
        )
    totals = aggregate_flow_counters(all_counters)
    rows.append(
        [
            "TOTAL",
            totals["events_shed"],
            totals["credits_granted"],
            totals["credit_stalls"],
            totals["rate_limited"],
            totals["overload_transitions"],
        ]
    )
    table = render_table(
        ["Location", "Shed", "Credits", "Stalls", "Rate-limited", "Overloads"],
        rows,
    )
    out = [title, table]
    if totals["sheds_by_reason"]:
        out.append("Sheds by reason:")
        for reason in sorted(totals["sheds_by_reason"]):
            out.append(f"  {reason}: {totals['sheds_by_reason'][reason]}")
    return "\n".join(out)


def render_network_summary(stats: Any, title: str = "Network traffic") -> str:
    """Totals from a :class:`~repro.sim.network.NetworkStats`, including
    the loss/duplication columns the fault injector feeds."""
    rows = [
        ["delivered messages", stats.total_messages],
        ["delivered bytes", stats.total_bytes],
        ["dropped messages", stats.dropped_messages],
        ["dropped bytes", stats.dropped_bytes],
        ["duplicated messages", stats.duplicated_messages],
        ["duplicated bytes", stats.duplicated_bytes],
        ["peak in-flight messages", stats.peak_in_flight],
    ]
    table = render_table(["Counter", "Value"], rows)
    return f"{title}\n{table}"


def render_trace_path(tracer: Any, event_id: Tuple[Any, ...]) -> str:
    """Reconstruct and render every delivery path of one event.

    ``tracer`` is an :class:`~repro.obs.tracing.EventTracer`; the output
    is one multi-line listing per subscriber that received (or filtered
    out) the event, publisher-first.
    """
    paths = tracer.reconstruct(event_id)
    if not paths:
        return f"event {event_id[0]}/{event_id[1]}: no delivery spans recorded"
    return "\n".join(path.render() for path in paths)


def render_stage_latency_histograms(
    tracer: Any, title: str = "Per-stage hop latency", buckets: int = 8
) -> str:
    """Histogram of per-hop latencies, grouped by the receiving stage.

    Hop latencies come from reconstructed delivery paths (time between
    consecutive spans of a complete publisher-to-subscriber chain), so
    the histogram reflects what delivered events actually experienced —
    queue/defer time, link latency, and fault-window jitter included.
    """
    by_stage: dict = {}
    for paths in tracer.reconstruct_all():
        for path in paths:
            if not path.complete:
                continue
            for _, stage, latency in path.hop_latencies:
                by_stage.setdefault(stage, []).append(latency)
    out = [title]
    if not by_stage:
        out.append("  (no complete paths recorded)")
        return "\n".join(out)
    for stage in sorted(by_stage, reverse=True):
        values = sorted(by_stage[stage])
        lo, hi = values[0], values[-1]
        mean = sum(values) / len(values)
        out.append(
            f"  stage {stage}: n={len(values)} min={format_number(lo)} "
            f"mean={format_number(mean)} max={format_number(hi)}"
        )
        span = (hi - lo) or 1.0
        counts = [0] * buckets
        for value in values:
            index = min(buckets - 1, int((value - lo) / span * buckets))
            counts[index] += 1
        top = max(counts)
        for bucket, count in enumerate(counts):
            left = lo + span * bucket / buckets
            right = lo + span * (bucket + 1) / buckets
            bar = "#" * (round(count / top * 40) if top else 0)
            out.append(
                f"    [{format_number(left)}, {format_number(right)}) "
                f"{count:>6} {bar}"
            )
    return "\n".join(out)


def render_hottest_brokers(
    tracer: Any, top: int = 10, title: str = "Hottest brokers"
) -> str:
    """Top-N brokers by hop-span count (events actually processed),
    with their total fan-out alongside."""
    per_node: dict = {}
    for span in tracer.kinds("hop"):
        entry = per_node.get(span.node)
        if entry is None:
            entry = per_node[span.node] = {"stage": span.stage, "hops": 0, "fanout": 0}
        entry["hops"] += 1
        entry["fanout"] += span.detail("fanout", 0)
    ranked = sorted(
        per_node.items(), key=lambda item: (-item[1]["hops"], item[0])
    )[:top]
    rows = [
        [name, entry["stage"], entry["hops"], entry["fanout"]]
        for name, entry in ranked
    ]
    if not rows:
        rows = [["(none)", "-", 0, 0]]
    table = render_table(["Broker", "Stage", "Events", "Fan-out"], rows)
    return f"{title}\n{table}"


def render_fault_alignment(
    tracer: Any,
    windows: Sequence[Tuple[float, float, str]],
    title: str = "Fault windows vs. loss/retransmit spans",
) -> str:
    """Align fault windows against the drop/dup/retransmit spans they
    caused: for each window, the control- and wire-level span counts
    inside it, plus the counts outside any window (which should stay
    near zero on a healthy run).

    ``windows`` is ``(start, end, label)`` triples in simulated time.
    """
    disturbance = tracer.kinds("drop", "dup", "retransmit", "channel-reset")
    rows: List[List[Any]] = []
    claimed = [False] * len(disturbance)
    for start, end, label in windows:
        counts = {"drop": 0, "dup": 0, "retransmit": 0, "channel-reset": 0}
        for index, span in enumerate(disturbance):
            if start <= span.time < end:
                counts[span.kind] += 1
                claimed[index] = True
        rows.append(
            [
                f"[{format_number(start)}, {format_number(end)}) {label}",
                counts["drop"],
                counts["dup"],
                counts["retransmit"],
                counts["channel-reset"],
            ]
        )
    outside = {"drop": 0, "dup": 0, "retransmit": 0, "channel-reset": 0}
    for index, span in enumerate(disturbance):
        if not claimed[index]:
            outside[span.kind] += 1
    rows.append(
        [
            "outside all windows",
            outside["drop"],
            outside["dup"],
            outside["retransmit"],
            outside["channel-reset"],
        ]
    )
    table = render_table(
        ["Window", "Drops", "Dups", "Retransmits", "Channel resets"], rows
    )
    return f"{title}\n{table}"


def render_series(
    title: str, series: Sequence[Tuple[str, Sequence[float]]], width: int = 60
) -> str:
    """Render named series as compact ASCII sparklines plus summary stats.

    A stand-in for the paper's scatter plots (e.g. Figure 7) on a text
    terminal: each series shows min/mean/max and a downsampled bar strip.
    """
    blocks = " .:-=+*#%@"
    out = [title]
    for name, values in series:
        values = list(values)
        if not values:
            out.append(f"  {name}: (empty)")
            continue
        lo, hi = min(values), max(values)
        mean = sum(values) / len(values)
        if len(values) > width:
            stride = len(values) / width
            sampled = [values[int(i * stride)] for i in range(width)]
        else:
            sampled = values
        span = (hi - lo) or 1.0
        strip = "".join(
            blocks[min(len(blocks) - 1, int((v - lo) / span * (len(blocks) - 1)))]
            for v in sampled
        )
        out.append(
            f"  {name}: n={len(values)} min={format_number(lo)} "
            f"mean={format_number(mean)} max={format_number(hi)}"
        )
        out.append(f"    [{strip}]")
    return "\n".join(out)


def _stream_value(counter: Any, name: str) -> int:
    """Read one flow counter from a NodeCounters *or* a snapshot dict.

    Tolerant by construction: brokers that predate the streams subsystem
    (older multiprocess worker snapshots) or never installed a flow
    simply report 0 — no KeyError on absent flow counters.
    """
    if isinstance(counter, dict):
        return counter.get(name, 0)
    return getattr(counter, name, 0)


def aggregate_stream_counters(counters: Iterable[Any]) -> dict:
    """Fold per-node information-flow counters into system-wide totals."""
    totals = {
        "flows_installed": 0,
        "flow_events_in": 0,
        "flow_events_out": 0,
        "flow_windows_dropped": 0,
        "flow_collapsed_events": 0,
        "events_published": 0,
    }
    for counter in counters:
        for name in totals:
            totals[name] += _stream_value(counter, name)
    return totals


def render_stream_summary(
    named_counters: Iterable[Tuple[str, Any]],
    title: str = "Information flows",
) -> str:
    """Per-broker flow counters plus a totals row.

    Rows for brokers with zero flow activity are elided (most brokers
    host no flows); the totals row always renders, so a system with no
    flows at all still produces a well-formed (all-zero) table.
    """
    headers = [
        title,
        "flows",
        "events in",
        "derived out",
        "windows dropped",
        "collapsed",
        "published",
    ]
    names = (
        "flows_installed",
        "flow_events_in",
        "flow_events_out",
        "flow_windows_dropped",
        "flow_collapsed_events",
        "events_published",
    )
    rows: List[List[Any]] = []
    all_counters: List[Any] = []
    for name, counter in named_counters:
        all_counters.append(counter)
        values = [_stream_value(counter, field) for field in names]
        if any(values):
            rows.append([name] + values)
    totals = aggregate_stream_counters(all_counters)
    rows.append(["TOTAL"] + [totals[field] for field in names])
    return render_table(headers, rows)
