"""Replay sweep: durable logs, catch-up subscribers and crash recovery
(DESIGN §11), as one fixed schedule of :mod:`repro.experiments.scenario`
steps: a veteran subscriber; a history phase into every broker's log;
three late subscribers catching up — from offset 0, a mid-stream offset
and an ISO-8601 time — at the configured replay rate (credit-paced with
flow control on) until they go live; and a live phase with the
veteran's stage-2 broker killed in the middle, which replays what it
missed from the root's log.  The harness's oracle scores it: ``check``
finds nothing, and every (subscription, event) pair it owes was
delivered, crash window included.  The rendered report is the artifact
CI's ``replay-gates`` job archives.
"""

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.engine import MultiStageEventSystem
from repro.experiments.scenario import Scenario, check
from repro.flow import FlowConfig
from repro.log import LogConfig, format_point
from repro.metrics.report import render_table

#: Every subscriber's filter, and the publisher every event comes from.
TEXT = 'symbol = "Foo"'
PUBLISHER = "replay-feed"
#: Simulated seconds a pinned subscription is given to join up to the root.
JOIN = 0.5


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
class Verdict:
    """The pairs the oracle owes over every event, how many were
    delivered, and what :func:`~repro.experiments.scenario.check` found."""

    expected: int
    delivered: int
    violations: List[str]

    @property
    def clean(self) -> bool:
        return not self.violations

    def render(self) -> str:
        verdict = "CLEAN" if self.clean else "VIOLATED"
        head = f"exactly-once check: {self.delivered}/{self.expected} owed delivered, {verdict}"
        return "\n".join([head] + [f"  {violation}" for violation in self.violations])


@dataclass
class ReplayResult:
    """Measurements from one replay run."""

    config: ReplayConfig
    catch_ups: List[CatchUpOutcome] = field(default_factory=list)
    audit: Optional[Verdict] = None
    system: MultiStageEventSystem = field(default=None, repr=False)
    scenario: Scenario = field(default=None, repr=False)

    def total(self, counter: str) -> int:
        """``counter`` summed over every broker and subscriber."""
        processes = (*self.system.hierarchy.nodes(), *self.system.subscribers)
        return sum(getattr(p.counters, counter) for p in processes)

    @property
    def replay_events_sent(self) -> int:
        return self.total("replay_events_sent")

    @property
    def converged(self) -> bool:
        return all(c.live for c in self.catch_ups)

    @property
    def clean(self) -> bool:
        return self.audit is not None and self.audit.clean


def _quotes(config: ReplayConfig, first: int, count: int) -> List[Tuple]:
    """``count`` quotes of prices ``first``, ``first + 1``, … one every
    ``publish_dt``."""
    run = ("run", config.publish_dt)
    return [
        step
        for price in range(first, first + count)
        for step in (("publish", [{"symbol": "Foo", "price": float(price)}], PUBLISHER), run)
    ]


def run_replay(config: Optional[ReplayConfig] = None) -> ReplayResult:
    """Run the veteran → history → catch-ups → live-with-a-crash
    schedule and score it."""
    config = config or ReplayConfig()
    scenario = Scenario(
        stage_sizes=config.stage_sizes,
        seed=config.seed,
        ttl=config.ttl,
        flow=FlowConfig(link_window=config.link_window),
        log=LogConfig(replay_rate=config.replay_rate, replay_batch=config.replay_batch),
    )
    system = scenario.system
    result = ReplayResult(config=config, system=system, scenario=scenario)
    home = system.hierarchy.stage1_nodes()[0]
    scenario.apply([("subscribe", "replay-veteran", TEXT, home.name), ("run", JOIN)])
    scenario.apply(_quotes(config, 0, config.history_events) + [("run", 0.5)])

    # Late joiners: offset 0, a mid-stream offset, and an ISO timestamp.
    root_log = system.root.log
    mid_time = format_point(root_log.record_at(config.mid_offset).time)
    suffix = config.history_events - config.mid_offset
    origins = [
        ("replay-from-start", (0, None), "from_offset=0", config.history_events),
        ("replay-from-offset", (config.mid_offset, None), f"from_offset={config.mid_offset}", suffix),
        ("replay-from-time", (None, mid_time), f"from_time={mid_time}", suffix),
    ]
    for name, _, origin, expected in origins:
        scenario.subscribe(name, TEXT, home.name)
        result.catch_ups.append(CatchUpOutcome(name, origin, expected))
    scenario.run(JOIN)
    started = system.sim.now
    # Keys 1, 2 and 3: the veteran's is 0.
    scenario.apply([("catch_up", key, *at) for key, (_, at, _, _) in enumerate(origins, 1)])
    sessions = scenario.keys[1:]

    # Drain every session to live.
    while system.sim.now - started < config.max_convergence and not all(
        subscriber.catch_up_live(sid) for subscriber, sid in sessions
    ):
        scenario.run(0.25)
    for (subscriber, sid), outcome in zip(sessions, result.catch_ups):
        outcome.live = subscriber.catch_up_live(sid)
        outcome.convergence_time = (
            system.sim.now - started if outcome.live else config.max_convergence
        )

    # Live phase with the veteran's stage-2 broker killed in the middle.
    live = _quotes(config, config.history_events, config.live_events) + [("run", 6.0)]
    if config.crash_duration:
        kill = ("kill", home.parent.name, config.crash_duration)
        live.insert(2 * round(config.crash_after / config.publish_dt), kill)
    scenario.apply(live)
    for (subscriber, sid), outcome in zip(sessions, result.catch_ups):
        stats = subscriber.catch_up_stats(sid)
        outcome.history_delivered = stats["history_delivered"]
        outcome.tap_delivered = stats["tap_delivered"]
        outcome.dupes_discarded = stats["dupes_discarded"]
    violations = check(scenario)
    owed, delivered, _ = scenario.tally(range(len(scenario.events)))
    result.audit = Verdict(owed, delivered, violations)
    return result


def render(result: ReplayResult) -> str:
    config = result.config
    title = (
        f"Replay run: {config.history_events} history + {config.live_events} "
        f"live events, replay rate {config.replay_rate}/s, crash "
        f"{config.crash_duration}s (seed {config.seed})"
    )
    rows = [
        [
            outcome.subscriber,
            outcome.origin,
            f"{outcome.history_delivered}/{outcome.expected_history}",
            outcome.tap_delivered,
            outcome.dupes_discarded,
            f"{outcome.convergence_time:.2f}s" + ("" if outcome.live else " (never live!)"),
        ]
        for outcome in result.catch_ups
    ]
    headers = ["Catch-up", "Origin", "History", "Taps", "Dupes dropped", "To live"]
    root_log = result.system.root.log
    totals = [
        ["root log records / segments", f"{len(root_log)} / {len(root_log.segments())}"],
        ["replay events sent (all brokers)", result.replay_events_sent],
        ["replay dupes discarded", result.total("replay_dupes_discarded")],
        ["catch-up live taps", result.total("catchup_taps")],
    ]
    tables = [render_table(headers, rows), render_table(["Metric", "Value"], totals)]
    return "\n\n".join([title, *tables, result.audit.render()])


def run(config: Optional[ReplayConfig] = None) -> ReplayResult:
    result = run_replay(config)
    print(render(result))
    print(f"\ncatch-ups converged: {result.converged}; audit clean: {result.clean}")
    return result


if __name__ == "__main__":  # pragma: no cover - manual entry point
    run()
