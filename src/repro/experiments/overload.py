"""Overload sweep: offered load vs. goodput, latency, and shed rate.

The other experiments drive infinitely fast brokers, so the system can
never be overloaded — every offered event is eventually processed.  This
sweep gives every broker a finite service rate and pushes an open-loop
publisher at multiples of the bottleneck capacity (the root sees every
published event, so saturation ≈ the configured ``service_rate``), once
*with* the flow-control subsystem (credits, bounded queues, shedding —
see :mod:`repro.flow`) and once *without* (finite-speed brokers with
unbounded queues: the classic congestion-collapse baseline).

Per point the sweep reports

- **accepted / offered** — publishes admitted past the publisher's
  credit window and local queue,
- **goodput** — deliveries that met the latency SLO, per second,
- **p50/max delivery latency** over all deliveries,
- **shed events** by location (publisher edge vs. broker queues) and
  **peak queued** — the memory the run actually committed, against the
  configured bound.

The headline: below saturation the two configurations are
indistinguishable and nothing is shed; past saturation the uncontrolled
run's queues (and latencies) grow without bound while the controlled run
sheds at the publisher edge, keeps total queued memory under the
configured cap, and holds goodput at the service capacity.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.engine import MultiStageEventSystem
from repro.experiments.scenario import SCHEMA, SYMBOLS, Quote
from repro.flow import FlowConfig
from repro.metrics.report import (
    render_flow_summary,
    render_table,
)
from repro.sim.rng import RngRegistry

OVERLOAD_EVENT_CLASS = "Load"


@dataclass(frozen=True)
class OverloadConfig:
    """Knobs of one overload sweep (defaults are CI-sized)."""

    stage_sizes: Tuple[int, ...] = (4, 2, 1)
    n_subscribers: int = 16
    seed: int = 11
    #: Broker service capacity (events/s); the root sees every event, so
    #: this is the system's saturation point for offered load.
    service_rate: float = 300.0
    service_batch: int = 8
    #: Open-loop publishing window and post-publish drain tail (sim s).
    duration: float = 4.0
    tail: float = 2.0
    #: Delivery-latency SLO for goodput accounting (sim s).
    slo: float = 1.0
    #: Offered load as multiples of ``service_rate``.
    multipliers: Tuple[float, ...] = (0.5, 1.0, 2.0, 10.0)
    flow: FlowConfig = field(default_factory=FlowConfig)
    #: Queue-depth probe interval for the peak-memory measurement.
    probe_interval: float = 0.05


@dataclass
class OverloadPoint:
    """Measurements from one (multiplier, flow on/off) run."""

    multiplier: float
    controlled: bool
    offered: int = 0
    accepted: int = 0
    deliveries: int = 0
    good_deliveries: int = 0
    goodput: float = 0.0
    p50_latency: float = 0.0
    max_latency: float = 0.0
    shed_total: int = 0
    shed_publisher: int = 0
    shed_brokers: int = 0
    rate_limited: int = 0
    credit_stalls: int = 0
    overload_transitions: int = 0
    peak_queued: int = 0
    final_queued: int = 0
    system: MultiStageEventSystem = field(default=None, repr=False)


@dataclass
class OverloadResult:
    config: OverloadConfig
    #: ``{multiplier: point}`` for the flow-controlled runs.
    controlled: Dict[float, OverloadPoint] = field(default_factory=dict)
    #: ``{multiplier: point}`` for the unbounded-queue baseline.
    uncontrolled: Dict[float, OverloadPoint] = field(default_factory=dict)

    @property
    def capacity_budget(self) -> int:
        return queue_capacity_budget(self.config)


def queue_capacity_budget(config: OverloadConfig) -> int:
    """The hard memory bound a controlled run must respect: every bounded
    queue's capacity, summed — broker inbound queues, per-child outbound
    queues, and the publisher's credit-blocked local queue."""
    flow = config.flow
    budget = flow.publisher_queue_capacity  # one publisher
    sizes = list(config.stage_sizes)
    for index, size in enumerate(sizes):
        children = sizes[index - 1] if index > 0 else 0
        per_node_outbound = 0
        if children:
            # Children are distributed round-robin over this stage.
            per_node_outbound = -(-children // size) * flow.outbound_capacity
        budget += size * (flow.queue_capacity + per_node_outbound)
    return budget


def run_point(
    config: OverloadConfig,
    multiplier: float,
    controlled: bool,
    tracing: bool = False,
) -> OverloadPoint:
    """One open-loop run at ``multiplier`` × saturation."""
    system = MultiStageEventSystem(
        stage_sizes=config.stage_sizes,
        seed=config.seed,
        tracing=tracing,
        flow=config.flow if controlled else None,
        service_rate=config.service_rate,
        service_batch=config.service_batch,
    )
    point = OverloadPoint(
        multiplier=multiplier, controlled=controlled, system=system
    )
    system.advertise(OVERLOAD_EVENT_CLASS, schema=SCHEMA)
    system.drain()

    rngs = RngRegistry(config.seed)
    sub_rng = rngs.stream("overload/subscriptions")
    publish_times: Dict[int, float] = {}
    latencies: List[float] = []

    def handler(event, metadata, subscription):
        latencies.append(system.sim.now - publish_times[event.uid])

    for index in range(config.n_subscribers):
        subscriber = system.create_subscriber(f"load-sub-{index}")
        symbol = SYMBOLS[index % len(SYMBOLS)]
        bound = sub_rng.randrange(6, 12)
        system.subscribe(
            subscriber,
            f'class = "{OVERLOAD_EVENT_CLASS}" and symbol = "{symbol}" '
            f"and price < {bound}",
            event_class=OVERLOAD_EVENT_CLASS,
            handler=handler,
        )
        system.drain()

    publisher = system.create_publisher("load-feed")
    event_rng = rngs.stream("overload/events")
    offered_rate = config.service_rate * multiplier
    uids = iter(range(10_000_000))

    def publish_one() -> None:
        uid = next(uids)
        point.offered += 1
        publish_times[uid] = system.sim.now
        symbol = event_rng.choice(SYMBOLS)
        price = event_rng.randrange(0, 12)
        if publisher.publish(
            Quote(symbol, price, uid), event_class=OVERLOAD_EVENT_CLASS
        ):
            point.accepted += 1

    def probe() -> None:
        depth = system.total_queue_depth()
        if depth > point.peak_queued:
            point.peak_queued = depth

    system.start_sampling(interval=0.25)  # feeds the overload detectors
    feed = system.sim.every(1.0 / offered_rate, publish_one)
    probe_handle = system.sim.every(config.probe_interval, probe)
    system.run_for(config.duration)
    feed.cancel()
    system.run_for(config.tail)
    probe_handle.cancel()
    system.stop_sampling()

    point.final_queued = system.total_queue_depth()
    point.deliveries = len(latencies)
    point.good_deliveries = sum(1 for lat in latencies if lat <= config.slo)
    point.goodput = point.good_deliveries / config.duration
    if latencies:
        ordered = sorted(latencies)
        point.p50_latency = ordered[len(ordered) // 2]
        point.max_latency = ordered[-1]
    point.shed_total = system.total_events_shed()
    point.shed_publisher = publisher.counters.events_shed
    point.shed_brokers = point.shed_total - point.shed_publisher
    point.rate_limited = publisher.counters.rate_limited
    all_counters = [n.counters for n in system.hierarchy.nodes()] + [
        publisher.counters
    ]
    point.credit_stalls = sum(c.credit_stalls for c in all_counters)
    point.overload_transitions = sum(
        c.overload_transitions for c in all_counters
    )
    return point


def run_overload(config: Optional[OverloadConfig] = None) -> OverloadResult:
    """Sweep every multiplier, controlled and uncontrolled."""
    config = config or OverloadConfig()
    result = OverloadResult(config=config)
    for multiplier in config.multipliers:
        result.controlled[multiplier] = run_point(config, multiplier, True)
        result.uncontrolled[multiplier] = run_point(config, multiplier, False)
    return result


def render(result: OverloadResult) -> str:
    config = result.config
    headers = [
        "Load",
        "Flow",
        "Offered",
        "Accepted",
        "Goodput/s",
        "p50 lat",
        "Max lat",
        "Shed@pub",
        "Shed@brk",
        "Peak queued",
    ]
    rows: List[List] = []
    for multiplier in config.multipliers:
        for point in (
            result.controlled[multiplier], result.uncontrolled[multiplier]
        ):
            rows.append(
                [
                    f"{multiplier:g}x",
                    "on" if point.controlled else "off",
                    point.offered,
                    point.accepted,
                    point.goodput,
                    point.p50_latency,
                    point.max_latency,
                    point.shed_publisher,
                    point.shed_brokers,
                    point.peak_queued,
                ]
            )
    title = (
        f"Overload sweep: service_rate={config.service_rate:g}/s per broker, "
        f"{config.duration:g}s open-loop + {config.tail:g}s tail, "
        f"SLO={config.slo:g}s (seed {config.seed})"
    )
    parts = [title, render_table(headers, rows)]
    parts.append(
        f"controlled-memory bound: peak queued must stay <= "
        f"{result.capacity_budget} (sum of configured queue capacities); "
        f"worst controlled peak was "
        f"{max(p.peak_queued for p in result.controlled.values())}"
    )
    worst = result.controlled[max(config.multipliers)]
    named = [
        (n.name, n.counters) for n in worst.system.hierarchy.nodes()
    ] + [(p.name, p.counters) for p in worst.system.publishers]
    parts.append(
        render_flow_summary(
            named,
            title=(
                f"Flow counters at {max(config.multipliers):g}x "
                "(controlled run)"
            ),
        )
    )
    return "\n\n".join(parts)


def run(config: Optional[OverloadConfig] = None) -> OverloadResult:
    result = run_overload(config)
    print(render(result))
    return result


if __name__ == "__main__":  # pragma: no cover - manual entry point
    run()
