"""Replay sweep: durable logs, catch-up subscribers, crash recovery,
and the exactly-once audit (DESIGN §11).

One seeded run exercises the whole replay surface:

- a **history phase** publishes a quote stream that lands in every
  broker's append-only log (the root's log is the ground truth);
- three **catch-up subscribers** then join late — one from offset 0,
  one from a mid-stream offset, one from an ISO-8601 timestamp — drain
  history at the configured replay rate (credit-paced when flow control
  is on), and switch to live delivery;
- a **live phase** publishes more traffic, with a stage-2 broker
  crash/restart in the middle: the restarted broker replays the tail it
  missed from the root's log (offset-addressed recovery);
- finally the **audit** (:func:`repro.log.audit.verify_exactly_once`)
  diffs every subscriber's delivery trace against the root log and
  must find zero gaps and zero duplicates outside the crash window.

The rendered report — catch-up convergence, per-session replay stats,
recovery counters, and the audit verdict — is the artifact CI's
``replay-gates`` job archives.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.engine import MultiStageEventSystem
from repro.experiments.scenario import EVENT_CLASS, SCHEMA, Quote
from repro.flow import FlowConfig
from repro.log import (
    AuditReport,
    AuditSubscription,
    LogConfig,
    format_point,
    verify_exactly_once,
)
from repro.metrics.report import render_table


@dataclass
class ReplayConfig:
    """Knobs of one replay run (defaults are CI-sized)."""

    stage_sizes: Tuple[int, ...] = (4, 2, 1)
    seed: int = 7
    ttl: float = 30.0
    #: Events published before / after the catch-ups join.
    history_events: int = 60
    live_events: int = 40
    publish_dt: float = 0.01
    #: Replay pacing (events/s drained by a catch-up session).
    replay_rate: float = 400.0
    replay_batch: int = 8
    link_window: int = 32
    #: Mid-stream origins for the offset- and time-addressed catch-ups.
    mid_offset: int = 30
    #: Crash a stage-2 broker this long into the live phase, for this
    #: long (0 duration = no crash).
    crash_after: float = 0.1
    crash_duration: float = 0.4
    #: Give up waiting for a catch-up to reach live after this long.
    max_convergence: float = 30.0


@dataclass
class CatchUpOutcome:
    """One catch-up session's measurements."""

    subscriber: str
    origin: str
    expected_history: int
    history_delivered: int = 0
    tap_delivered: int = 0
    dupes_discarded: int = 0
    convergence_time: float = 0.0
    live: bool = False


@dataclass
class ReplayResult:
    """Measurements from one replay run."""

    config: ReplayConfig
    catch_ups: List[CatchUpOutcome] = field(default_factory=list)
    audit: Optional[AuditReport] = None
    crash_window: Tuple[float, float] = (0.0, 0.0)
    log_records: int = 0
    log_segments: int = 0
    replay_events_sent: int = 0
    replay_dupes_discarded: int = 0
    catchup_taps: int = 0
    system: MultiStageEventSystem = field(default=None, repr=False)

    @property
    def converged(self) -> bool:
        return all(c.live for c in self.catch_ups)

    @property
    def clean(self) -> bool:
        return self.audit is not None and self.audit.clean


def run_replay(config: Optional[ReplayConfig] = None) -> ReplayResult:
    config = config or ReplayConfig()
    flow = FlowConfig(link_window=config.link_window)
    log = LogConfig(
        replay_rate=config.replay_rate, replay_batch=config.replay_batch
    )
    system = MultiStageEventSystem(
        stage_sizes=config.stage_sizes,
        seed=config.seed,
        ttl=config.ttl,
        tracing=True,
        flow=flow,
        log=log,
    )
    system.advertise(EVENT_CLASS, schema=SCHEMA)
    system.drain()
    result = ReplayResult(config=config, system=system)
    publisher = system.create_publisher("replay-feed")
    deliveries: Dict[str, List[float]] = {}
    audited: List[AuditSubscription] = []

    def attach(name: str):
        subscriber = system.create_subscriber(name)
        log_ = deliveries.setdefault(name, [])
        home = system.hierarchy.stage1_nodes()[0]
        subscription = system.subscribe(
            subscriber,
            'symbol = "Foo"',
            event_class=EVENT_CLASS,
            handler=lambda e, m, s: log_.append(m["price"]),
            at_node=home,
        )[0]
        system.drain()
        return subscriber, subscription

    # A veteran subscriber watches from the start (the differential
    # baseline and the recovery-path witness).
    veteran, veteran_sub = attach("replay-veteran")
    audited.append(AuditSubscription(veteran.name, veteran_sub.filter))

    # History phase.
    for i in range(config.history_events):
        publisher.publish(Quote("Foo", float(i)), event_class=EVENT_CLASS)
        system.run_for(config.publish_dt)
    system.run_for(0.5)

    # Late joiners: offset 0, a mid-stream offset, and an ISO timestamp.
    root_log = system.root.log
    mid_time = root_log.record_at(config.mid_offset).time
    origins = [
        ("replay-from-start", dict(from_offset=0), config.history_events),
        (
            "replay-from-offset",
            dict(from_offset=config.mid_offset),
            config.history_events - config.mid_offset,
        ),
        (
            "replay-from-time",
            dict(from_time=format_point(mid_time)),
            config.history_events - config.mid_offset,
        ),
    ]
    sessions = []
    for name, kwargs, expected in origins:
        subscriber, subscription = attach(name)
        sid = subscription.subscription_id
        started = system.sim.now
        subscriber.catch_up(sid, **kwargs)
        origin = next(iter(kwargs.items()))
        outcome = CatchUpOutcome(
            subscriber=name,
            origin=f"{origin[0]}={origin[1]}",
            expected_history=expected,
        )
        result.catch_ups.append(outcome)
        sessions.append((subscriber, subscription, sid, started, outcome))
        audited.append(
            AuditSubscription(
                subscriber.name,
                subscription.filter,
                from_offset=kwargs.get("from_offset", 0),
                from_time=(
                    mid_time if "from_time" in kwargs else 0.0
                ),
            )
        )

    # Drain every session to live.
    waited = 0.0
    while waited < config.max_convergence and not all(
        s.catch_up_live(sid) for s, _, sid, _, _ in sessions
    ):
        system.run_for(0.25)
        waited += 0.25
    for subscriber, _, sid, started, outcome in sessions:
        outcome.live = subscriber.catch_up_live(sid)
        outcome.convergence_time = (
            (system.sim.now - started) if outcome.live else config.max_convergence
        )

    # Live phase with a crash/restart in the middle.
    victim = system.hierarchy.stage1_nodes()[0].parent
    crash_at = system.sim.now + config.crash_after
    heal_at = crash_at + config.crash_duration
    if config.crash_duration:
        system.sim.schedule_at(crash_at, victim.crash)
        system.sim.schedule_at(heal_at, victim.restart)
        result.crash_window = (crash_at, heal_at + 6.0)
    for i in range(config.live_events):
        publisher.publish(
            Quote("Foo", float(config.history_events + i)),
            event_class=EVENT_CLASS,
        )
        system.run_for(config.publish_dt)
    system.run_for(6.0)

    for subscriber, _, sid, _, outcome in sessions:
        stats = subscriber.catch_up_stats(sid)
        outcome.history_delivered = stats["history_delivered"]
        outcome.tap_delivered = stats["tap_delivered"]
        outcome.dupes_discarded = stats["dupes_discarded"]

    result.log_records = len(root_log)
    result.log_segments = len(root_log.segments())
    nodes = system.hierarchy.nodes()
    result.replay_events_sent = sum(n.counters.replay_events_sent for n in nodes)
    result.replay_dupes_discarded = sum(
        n.counters.replay_dupes_discarded for n in nodes
    ) + sum(s.counters.replay_dupes_discarded for s in system.subscribers)
    result.catchup_taps = sum(n.counters.catchup_taps for n in nodes)
    windows = [result.crash_window] if config.crash_duration else []
    result.audit = verify_exactly_once(
        root_log, system.tracer, audited, fault_windows=windows
    )
    return result


def render(result: ReplayResult) -> str:
    config = result.config
    title = (
        f"Replay run: {config.history_events} history + {config.live_events} "
        f"live events, replay rate {config.replay_rate}/s, crash "
        f"{config.crash_duration}s (seed {config.seed})"
    )
    rows = []
    for outcome in result.catch_ups:
        rows.append(
            [
                outcome.subscriber,
                outcome.origin,
                f"{outcome.history_delivered}/{outcome.expected_history}",
                outcome.tap_delivered,
                outcome.dupes_discarded,
                f"{outcome.convergence_time:.2f}s"
                + ("" if outcome.live else " (never live!)"),
            ]
        )
    sessions = render_table(
        ["Catch-up", "Origin", "History", "Taps", "Dupes dropped", "To live"],
        rows,
    )
    totals = render_table(
        ["Metric", "Value"],
        [
            ["root log records", result.log_records],
            ["root log segments", result.log_segments],
            ["replay events sent (all brokers)", result.replay_events_sent],
            ["replay dupes discarded", result.replay_dupes_discarded],
            ["catch-up live taps", result.catchup_taps],
        ],
    )
    return "\n\n".join([title, sessions, totals, result.audit.render()])


def run(config: Optional[ReplayConfig] = None) -> ReplayResult:
    result = run_replay(config)
    print(render(result))
    print(
        f"\ncatch-ups converged: {result.converged}; "
        f"audit clean: {result.clean}"
    )
    return result


if __name__ == "__main__":  # pragma: no cover - manual entry point
    run()
