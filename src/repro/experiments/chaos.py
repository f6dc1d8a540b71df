"""Chaos sweep: delivery and convergence under injected faults (§4.3).

A quote workload runs through a window of per-link loss, duplication
and jitter with one broker crash/restart inside it.  The run is a fixed
schedule of :mod:`repro.experiments.scenario` steps — subscribe, clean
traffic, the fault window, settle, clean traffic — scored by that
module's oracle: the delivery ratio per phase, the most copies of one
delivery outside the window, the time from window close to a hole-free,
acknowledged control plane, and the reliability and network counters.
The claim mirrors the paper's: events published outside fault windows
reach every matching subscriber exactly once, and the control plane
reconverges within a bound.  :func:`run_traced` is the same run with
the observability layer on, and its trace report.
"""

from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

from repro.core.engine import MultiStageEventSystem
from repro.experiments.scenario import SYMBOLS, Scenario
from repro.metrics.report import (
    render_fault_alignment,
    render_hottest_brokers,
    render_network_summary,
    render_reliability_summary,
    render_series,
    render_stage_latency_histograms,
    render_table,
    render_trace_path,
)
from repro.overlay.invariants import covering_violations
from repro.sim.rng import RngRegistry

#: The publisher every chaos event comes from (``--event=chaos-feed/12``).
CHAOS_PUBLISHER = "chaos-feed"


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
    #: The run's record, for :func:`repro.experiments.scenario.check`.
    scenario: Scenario = field(default=None, repr=False)

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


def _schedule(config: ChaosConfig, victim: str, rng, event_rng) -> List[List[Tuple]]:
    """The run's phases: subscriptions (each joined before the next;
    every ``wildcard_every``-th without a symbol), clean traffic, the
    fault window with ``victim`` killed ``crash_after`` seconds in, and
    clean traffic again."""
    subscribe = []
    for index in range(config.n_subscribers):
        text = f"price < {rng.randrange(3, 10)}"
        if not (config.wildcard_every and index % config.wildcard_every == 0):
            text = f'symbol = "{rng.choice(SYMBOLS)}" and {text}'
        subscribe += [("subscribe", f"chaos-sub-{index}", f'class = "Quote" and {text}'), ("run", 0.1)]

    def publish() -> Tuple:
        event = {"symbol": event_rng.choice(SYMBOLS), "price": event_rng.randrange(0, 12)}
        return ("publish", [event], CHAOS_PUBLISHER)

    def clean() -> List[Tuple]:
        return [step for _ in range(config.events_per_phase) for step in (publish(), ("run", 0.05))]

    pre = clean() + [("run", 1.0)]
    window = ("window", config.window_duration, config.loss, config.duplicate, config.jitter, 0.5)
    during, elapsed, kill = [window, ("run", 0.5)], 0.0, ("kill", victim, config.crash_duration)
    step = config.window_duration / max(1, config.events_per_phase)
    for _ in range(config.events_per_phase):
        during.append(publish())
        if kill and elapsed + step > config.crash_after:
            during += [("run", config.crash_after - elapsed), kill]
            during.append(("run", elapsed + step - config.crash_after))
            kill = None
        else:
            during.append(("run", step))
        elapsed += step
    return [subscribe, pre, during, clean() + [("run", 1.0)]]


def run_chaos(config: Optional[ChaosConfig] = None) -> ChaosResult:
    """Run the pre → fault → heal → post schedule and measure."""
    config = config or ChaosConfig()
    scenario = Scenario(
        stage_sizes=config.stage_sizes,
        ttl=config.ttl,
        seed=config.seed,
        aggregate=config.aggregate,
        tracing=config.tracing,
    )
    system = scenario.system
    result = ChaosResult(config=config, system=system, scenario=scenario)
    rngs = RngRegistry(config.seed)
    victim = system.hierarchy.nodes(config.crash_stage)[0]
    subscribe, pre_steps, during_steps, post_steps = _schedule(
        config, victim.name, rngs.stream("chaos/subscriptions"), rngs.stream("chaos/events")
    )

    def phase(steps) -> range:
        first = len(scenario.events)
        scenario.apply(steps)
        return range(first, len(scenario.events))

    scenario.apply(subscribe)
    scenario.start()
    if config.tracing:
        system.start_sampling(config.sample_interval)
    scenario.run(1.0)
    pre = phase(pre_steps)
    window_start = system.sim.now + 0.5
    window_end, crash_at = window_start + config.window_duration, window_start + config.crash_after
    result.fault_window = (window_start, window_end)
    result.crash_window = (crash_at, crash_at + config.crash_duration)
    during = phase(during_steps)
    if victim.name in scenario.seen_down:
        result.soft_state_violations = scenario.soft_state
    if system.sim.now < window_end:
        scenario.run(window_end - system.sim.now)
    heal_time = system.sim.now
    converged_at = scenario.settle(heal_time + config.max_convergence)
    result.convergence_time = (
        converged_at - heal_time if converged_at is not None else config.max_convergence
    )
    result.violations_after = len(covering_violations(system.hierarchy, system.sim.now))
    post = phase(post_steps)

    if not scenario.log:
        # An all-zero run would still "pass" ratio gates whose expected
        # count is zero (and used to render as zero latency); a chaos run
        # that delivers nothing is broken, not lucky — say so loudly.
        raise RuntimeError(
            "chaos run delivered zero events across all phases — the "
            "workload, subscriptions, or overlay wiring is broken "
            f"(published {len(scenario.events)} events to "
            f"{len(scenario.live)} subscriptions)"
        )
    result.pre_ratio, result.pre_max_copies = scenario.score(pre)
    result.during_ratio, _ = scenario.score(during)
    result.post_ratio, result.post_max_copies = scenario.score(post)

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


def run_traced(
    config: Optional[ChaosConfig] = None,
    event_id: Optional[Tuple[str, int]] = None,
) -> ChaosResult:
    """The chaos run with causal tracing and per-stage sampling on, and
    the full trace report; ``event_id`` (``--event=chaos-feed/12`` on
    the command line) also reconstructs that event's path."""
    result = run_chaos(replace(config or ChaosConfig(), tracing=True))
    print(render(result))
    broken = result.tracer.incomplete_deliveries()
    print(
        f"\nspans recorded: {len(result.tracer)}; "
        f"events traced: {len(result.tracer.event_ids())}; "
        f"broken delivery paths: {len(broken)}"
    )
    if event_id is not None:
        print()
        print(render_trace_path(result.tracer, event_id))
    return result


if __name__ == "__main__":  # pragma: no cover - manual entry point
    run()
