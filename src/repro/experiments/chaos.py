"""Chaos sweep: delivery and convergence under injected faults.

The paper's §4.3 soft state (TTL leases, refresh-or-restore renewals,
3×TTL purge) is a *fault tolerance* mechanism, but the other experiments
never exercise it: links are perfect and brokers immortal.  This sweep
runs a quote workload through a seeded :class:`~repro.sim.network.FaultPlan`
— a window of per-link loss, duplication, and latency jitter containing
one broker crash/restart — and measures

- **delivery ratio** per phase (before / during / after the fault
  window) against ground truth computed from the subscriptions,
- **exactly-once**: no subscriber sees a duplicate delivery of an event
  published outside the fault window,
- **convergence time**: how long after the window closes until the
  covering invariant holds at every broker and all reliable-channel
  frames are acknowledged,
- the reliability counters (control retransmits, duplicate frames
  discarded) and the network's drop/duplication accounting.

The headline claim mirrors the paper's: events published outside fault
windows are delivered exactly once to every matching subscriber, with
the control plane reconverging within a bounded time after heal.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.engine import MultiStageEventSystem
from repro.metrics.report import (
    render_fault_alignment,
    render_hottest_brokers,
    render_network_summary,
    render_reliability_summary,
    render_series,
    render_stage_latency_histograms,
    render_table,
)
from repro.overlay.invariants import covering_violations, soft_state_violations
from repro.sim.network import FaultPlan
from repro.sim.rng import RngRegistry

CHAOS_EVENT_CLASS = "Quote"
SCHEMA = ("class", "symbol", "price")
SYMBOLS = tuple(f"SYM{i}" for i in range(8))


class Quote:
    """Minimal quote event; ``uid`` rides in the opaque payload only
    (no getter, so reflection keeps it out of the routing meta-data)."""

    def __init__(self, symbol: str, price: int, uid: int):
        self._symbol = symbol
        self._price = price
        self.uid = uid

    def get_symbol(self) -> str:
        return self._symbol

    def get_price(self) -> int:
        return self._price


@dataclass(frozen=True)
class _SubscriptionSpec:
    """Ground truth for one subscription: symbol (None = wildcard) and
    exclusive price bound."""

    subscriber: str
    symbol: Optional[str]
    bound: int

    def matches(self, symbol: str, price: int) -> bool:
        if self.symbol is not None and self.symbol != symbol:
            return False
        return price < self.bound


@dataclass
class ChaosConfig:
    """Knobs of one chaos run (defaults are CI-sized)."""

    stage_sizes: Tuple[int, ...] = (4, 2, 1)
    n_subscribers: int = 12
    #: Every ``wildcard_every``-th subscriber drops the symbol constraint
    #: (attaching above stage 1, so the crash also hits wildcard homes).
    wildcard_every: int = 4
    events_per_phase: int = 20
    seed: int = 7
    ttl: float = 10.0
    #: Fault-window link faults (probabilities / seconds).
    loss: float = 0.10
    duplicate: float = 0.05
    jitter: float = 0.005
    window_duration: float = 8.0
    #: The crashed broker: index into the stage-2 node list.
    crash_stage: int = 2
    crash_after: float = 1.0
    crash_duration: float = 4.0
    #: Give up measuring convergence after this long past heal.
    max_convergence: float = 80.0
    aggregate: bool = True
    #: Causal span tracing + per-stage sampling (the observability layer).
    tracing: bool = False
    sample_interval: float = 0.5


@dataclass
class ChaosResult:
    """Measurements from one chaos run."""

    config: ChaosConfig
    #: Delivered / expected (subscription, event) pairs per phase.
    pre_ratio: float = 0.0
    during_ratio: float = 0.0
    post_ratio: float = 0.0
    #: Max copies of one (subscription, event) delivery, per phase.
    pre_max_copies: int = 0
    post_max_copies: int = 0
    #: Simulated seconds from window close to a quiesced, hole-free
    #: control plane (``max_convergence`` if never reached).
    convergence_time: float = 0.0
    #: Covering violations still open when measurement stopped.
    violations_after: int = 0
    #: What the crashed broker still held each time it was seen down
    #: (``None``: it never was).
    soft_state_violations: Optional[List[str]] = None
    control_retransmits: int = 0
    control_dups_discarded: int = 0
    dropped_messages: int = 0
    dropped_bytes: int = 0
    duplicated_messages: int = 0
    #: The link-fault window and the broker crash window, in sim time.
    fault_window: Tuple[float, float] = (0.0, 0.0)
    crash_window: Tuple[float, float] = (0.0, 0.0)
    system: MultiStageEventSystem = field(default=None, repr=False)

    @property
    def tracer(self):
        return self.system.tracer

    @property
    def sampler(self):
        return self.system.sampler

    @property
    def converged(self) -> bool:
        return self.violations_after == 0

    @property
    def exactly_once(self) -> bool:
        """No duplicate deliveries of events published outside faults."""
        return self.pre_max_copies <= 1 and self.post_max_copies <= 1


def _build_system(config: ChaosConfig):
    system = MultiStageEventSystem(
        stage_sizes=config.stage_sizes,
        ttl=config.ttl,
        seed=config.seed,
        aggregate=config.aggregate,
        tracing=config.tracing,
    )
    system.advertise(CHAOS_EVENT_CLASS, schema=SCHEMA)
    system.drain()

    rngs = RngRegistry(config.seed)
    sub_rng = rngs.stream("chaos/subscriptions")
    specs: List[_SubscriptionSpec] = []
    deliveries: Dict[str, List[int]] = {}

    def recorder(name: str):
        log = deliveries.setdefault(name, [])

        def handler(event, metadata, subscription):
            log.append(event.uid)

        return handler

    for index in range(config.n_subscribers):
        subscriber = system.create_subscriber(f"chaos-sub-{index}")
        bound = sub_rng.randrange(3, 10)
        if config.wildcard_every and index % config.wildcard_every == 0:
            symbol = None
            text = f'class = "{CHAOS_EVENT_CLASS}" and price < {bound}'
        else:
            symbol = sub_rng.choice(SYMBOLS)
            text = (
                f'class = "{CHAOS_EVENT_CLASS}" and symbol = "{symbol}" '
                f"and price < {bound}"
            )
        specs.append(_SubscriptionSpec(subscriber.name, symbol, bound))
        system.subscribe(
            subscriber,
            text,
            event_class=CHAOS_EVENT_CLASS,
            handler=recorder(subscriber.name),
        )
        system.drain()
    return system, specs, deliveries, rngs


def run_chaos(config: Optional[ChaosConfig] = None) -> ChaosResult:
    """Run the pre → fault → heal → post pipeline and measure."""
    config = config or ChaosConfig()
    system, specs, deliveries, rngs = _build_system(config)
    result = ChaosResult(config=config, system=system)
    event_rng = rngs.stream("chaos/events")
    publisher = system.create_publisher("chaos-feed")
    uids = iter(range(1_000_000))
    events: Dict[int, Tuple[str, int]] = {}

    def publish_one() -> int:
        uid = next(uids)
        symbol = event_rng.choice(SYMBOLS)
        price = event_rng.randrange(0, 12)
        events[uid] = (symbol, price)
        publisher.publish(Quote(symbol, price, uid), event_class=CHAOS_EVENT_CLASS)
        return uid

    system.start_maintenance()
    if config.tracing:
        system.start_sampling(config.sample_interval)
    system.run_for(1.0)

    # Phase 1: clean traffic, no faults anywhere near the wire.
    pre_uids = []
    for _ in range(config.events_per_phase):
        pre_uids.append(publish_one())
        system.run_for(0.05)
    system.run_for(1.0)

    # Phase 2: the fault window — lossy, duplicating, jittery links plus
    # one stage-``crash_stage`` broker crash/restart in the middle.
    window_start = system.sim.now + 0.5
    window_end = window_start + config.window_duration
    plan = FaultPlan(seed=config.seed)
    plan.add_window(
        window_start,
        window_end,
        loss=config.loss,
        duplicate=config.duplicate,
        jitter=config.jitter,
    )
    victims = system.hierarchy.nodes(config.crash_stage)
    victim = victims[0]
    crash_at = window_start + config.crash_after
    plan.add_crash(victim, crash_at, config.crash_duration)
    result.fault_window = (window_start, window_end)
    result.crash_window = (crash_at, crash_at + config.crash_duration)
    system.network.install_faults(plan)
    system.run_for(0.5)

    during_uids = []
    step = config.window_duration / max(1, config.events_per_phase)
    for _ in range(config.events_per_phase):
        during_uids.append(publish_one())
        system.run_for(step)
        if victim.crashed:
            result.soft_state_violations = (
                result.soft_state_violations or []
            ) + soft_state_violations(victim)
    if system.sim.now < window_end:
        system.run_for(window_end - system.sim.now)

    # Phase 3: heal; step until the covering invariant holds everywhere
    # and every reliable-channel frame is acknowledged.
    heal_time = system.sim.now
    deadline = heal_time + config.max_convergence
    converged_at = None
    while system.sim.now < deadline:
        system.run_for(0.5)
        if covering_violations(system.hierarchy, system.sim.now):
            continue
        if not all(n.uplink_idle for n in system.hierarchy.nodes()):
            continue
        if not all(s.control_idle for s in system.subscribers):
            continue
        converged_at = system.sim.now
        break
    result.convergence_time = (
        (converged_at - heal_time) if converged_at is not None
        else config.max_convergence
    )
    result.violations_after = len(
        covering_violations(system.hierarchy, system.sim.now)
    )

    # Phase 4: clean traffic again over the recovered overlay.
    post_uids = []
    for _ in range(config.events_per_phase):
        post_uids.append(publish_one())
        system.run_for(0.05)
    system.run_for(1.0)

    # Score against ground truth.
    total_delivered = sum(len(log) for log in deliveries.values())
    if total_delivered == 0:
        # An all-zero run would still "pass" ratio gates whose expected
        # count is zero (and used to render as zero latency); a chaos run
        # that delivers nothing is broken, not lucky — say so loudly.
        raise RuntimeError(
            "chaos run delivered zero events across all phases — the "
            "workload, subscriptions, or overlay wiring is broken "
            f"(published {len(events)} events to {len(specs)} subscriptions)"
        )
    counts: Dict[Tuple[str, int], int] = {}
    for name, log in deliveries.items():
        for uid in log:
            counts[(name, uid)] = counts.get((name, uid), 0) + 1

    def score(uid_list) -> Tuple[float, int]:
        expected = delivered = 0
        max_copies = 0
        for uid in uid_list:
            symbol, price = events[uid]
            for spec in specs:
                if not spec.matches(symbol, price):
                    continue
                expected += 1
                copies = counts.get((spec.subscriber, uid), 0)
                if copies:
                    delivered += 1
                if copies > max_copies:
                    max_copies = copies
        ratio = delivered / expected if expected else 1.0
        return ratio, max_copies

    result.pre_ratio, result.pre_max_copies = score(pre_uids)
    result.during_ratio, _ = score(during_uids)
    result.post_ratio, result.post_max_copies = score(post_uids)

    all_counters = [n.counters for n in system.hierarchy.nodes()] + [
        s.counters for s in system.subscribers
    ]
    result.control_retransmits = sum(c.control_retransmits for c in all_counters)
    result.control_dups_discarded = sum(
        c.control_dups_discarded for c in all_counters
    )
    stats = system.network.stats
    result.dropped_messages = stats.dropped_messages
    result.dropped_bytes = stats.dropped_bytes
    result.duplicated_messages = stats.duplicated_messages
    system.stop_maintenance()
    system.stop_sampling()
    return result


def render(result: ChaosResult) -> str:
    config = result.config
    rows = [
        ["delivery ratio (pre-fault)", result.pre_ratio],
        ["delivery ratio (during faults)", result.during_ratio],
        ["delivery ratio (post-heal)", result.post_ratio],
        ["max copies per delivery (pre)", result.pre_max_copies],
        ["max copies per delivery (post)", result.post_max_copies],
        ["convergence time after heal (s)", result.convergence_time],
        ["covering violations remaining", result.violations_after],
        ["control retransmits", result.control_retransmits],
        ["duplicate frames discarded", result.control_dups_discarded],
    ]
    title = (
        f"Chaos run: loss={config.loss} dup={config.duplicate} "
        f"jitter={config.jitter}s, crash stage {config.crash_stage} "
        f"for {config.crash_duration}s (seed {config.seed})"
    )
    parts = [title, render_table(["Metric", "Value"], rows)]
    parts.append(render_network_summary(result.system.network.stats))
    named = [
        (n.name, n.counters)
        for n in result.system.hierarchy.nodes()
        if n.counters.control_retransmits or n.counters.control_dups_discarded
    ]
    if named:
        parts.append(render_reliability_summary(named))
    if result.tracer.enabled:
        parts.append(render_observability(result))
    return "\n\n".join(parts)


def render_observability(result: ChaosResult) -> str:
    """The trace-derived sections of the chaos report: fault alignment,
    hop-latency histograms, hottest brokers, the sampled stage series,
    and one fully reconstructed event path."""
    tracer = result.tracer
    parts = []
    windows = [
        (result.fault_window[0], result.fault_window[1], "link faults"),
        (result.crash_window[0], result.crash_window[1], "broker crash"),
    ]
    parts.append(render_fault_alignment(tracer, windows))
    parts.append(render_stage_latency_histograms(tracer))
    parts.append(render_hottest_brokers(tracer))
    sampler = result.sampler
    if sampler is not None:
        for metric in ("events_per_s", "queue_depth", "retransmits_per_s"):
            parts.append(
                render_series(
                    f"Stage series: {metric}", sampler.stage_series(metric)
                )
            )
    # One reconstructed path, picked deterministically: the first event
    # with a complete delivered path.
    for paths in tracer.reconstruct_all():
        if any(p.complete and p.delivered for p in paths):
            parts.append(
                "Reconstructed event path\n"
                + "\n".join(path.render() for path in paths)
            )
            break
    return "\n\n".join(parts)


def run(config: Optional[ChaosConfig] = None) -> ChaosResult:
    result = run_chaos(config)
    print(render(result))
    print(
        f"\nexactly-once outside faults: {result.exactly_once}; "
        f"converged: {result.converged}"
    )
    return result


if __name__ == "__main__":  # pragma: no cover - manual entry point
    run()
