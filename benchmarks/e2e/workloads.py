"""The six workloads: seeded inputs, the system under test, timed segments.

A :class:`Bench` owns one workload.  It generates every input from its
seed and the fixed population (the program under test only ever sees
generated filters and events), builds the system through the public ``MultiStageEventSystem``
API with the constructor defaults, and runs *segments*: fixed amounts of
traffic whose timed part is bracketed here and whose deliveries are
checked against the oracle afterwards, outside the timed part.  A run
is a sequence of segments; ``run.py`` decides how many and which one it
reports.

Why each workload exists is recorded in ``BENCHMARK.json`` and
``README.md``; the constants below were sized on a 2-core box so that a
segment takes about a second at the seed commit.
"""

import gc
import multiprocessing
import os
import shutil
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Set, Tuple

from repro.core.engine import MultiStageEventSystem
from repro.events.base import PropertyEvent
from repro.events.typed import to_property_event
from repro.experiments.common import ScenarioConfig
from repro.filters.filter import Filter
from repro.flow import FlowConfig
from repro.log.config import LogConfig
from repro.sim.rng import RngRegistry
from repro.workloads.bibliographic import (
    BIB_EVENT_CLASS,
    BibliographicWorkload,
    BibRecord,
)
from repro.workloads.subscriptions import SubscriptionGenerator

from benchmarks.e2e.oracle import Oracle, Pair, Tally
from benchmarks.e2e.trace import HANDLER, PHASE, Recorder, traced

clock = time.perf_counter

#: Scratch space (durable logs of ``sim_managed``) stays inside the
#: benchmark's own directory: the driver's checkout is the only place a
#: run may write.
WORK_DIR = Path(__file__).resolve().parent / ".work"

QUOTE_CLASS = "Quote"
QUOTE_SCHEMA = ("class", "region", "sector", "symbol", "price")

#: ``--seed`` draws the traffic: event order and values, oracle samples.
#: The population -- record universe, subscriptions (those of the churn
#: rounds too) and the overlay's own placement seed -- is one dataset,
#: the same in every run: which broker a cluster of similar filters
#: lands on moved events/s by 16 % between populations on
#: ``sim_match_10k``, which would drown any bound.
POPULATION_SEED = 0

#: ``--quick``: populations and segments at a twentieth.
QUICK_SCALE = 0.05
#: Evaluations of every live subscription spent per segment on checking
#: the oracle's narrowing (see oracle.py), and per run: a program many
#: times faster fits many times the segments into ``--seconds``, and the
#: run must still end inside the driver's limit.
BRUTE_FORCE_BUDGET = 60_000
BRUTE_FORCE_RUN_BUDGET = 40 * BRUTE_FORCE_BUDGET
#: ``gc.collect()`` before a segment, but not more often than this: it
#: takes 0.1 s with 10 000 subscribers alive.
GC_INTERVAL_S = 0.5
#: A socket segment whose deliveries have not all arrived by then has
#: lost them.
DELIVERY_TIMEOUT_S = 20.0
JOIN_TIMEOUT_S = 60.0
_POLL_S = 0.002


@dataclass(frozen=True)
class Spec:
    """The constants of one workload."""

    name: str
    family: str  # "bib": typed BibRecord objects; "quote": PropertyEvents
    runtime: str
    stage_sizes: Tuple[int, ...]
    subscribers: int  # subscriber runtimes
    subs_each: int  # subscriptions per runtime
    #: How a burst is sent: "publish" one call per event, "batch"
    #: ``publish_batch`` per run, "scheduled" one timer per simulated
    #: millisecond, "socket" deferred runs on the runtime's own loop.
    mode: str
    chunk: int  # events per run (and per drain on the simulator)
    segment_events: int
    managed: bool = False  # flow control and a durable log on disk
    churn_ops: int = 0  # unsubscribes (and subscribes) per churn round
    churn_rounds: int = 0  # rounds per segment
    paced_rate: float = 0.0  # open-loop events per second
    #: Length of one paced segment: short, so that one of them falls
    #: into a stretch the box leaves undisturbed (run.py reports the best).
    paced_seconds: float = 0.0
    #: "quote" family: size of the ``symbol`` domain that filters and
    #: events are drawn from (region 4 x sector 10 x symbol).
    symbols: int = 50

    @property
    def timed_kind(self) -> str:
        return "churn" if self.churn_ops else "burst"


SPECS: Dict[str, Spec] = {
    spec.name: spec
    for spec in (
        Spec("sim_bib", "bib", "sim", (100, 10, 1), 1000, 1, "publish", 200, 3000),
        # 200 000 combinations a leaf broker can tell apart, against a
        # routing cache of 8 192: with the 2 000 of ``symbols=50`` the
        # cache answers every lookup and filters is 6 % of the run
        # (README, "Sizing").
        Spec(
            "sim_match_10k", "quote", "sim", (2, 1), 10000, 1, "batch", 100, 600,
            symbols=5000,
        ),
        Spec(
            "sim_churn", "quote", "sim", (10, 3, 1), 3000, 1, "batch", 300, 4800,
            churn_ops=30, churn_rounds=16,
        ),
        Spec(
            "sim_managed", "bib", "sim", (100, 10, 1), 1000, 1, "scheduled", 1, 1000,
            managed=True,
        ),
        Spec(
            "asyncio_bib", "bib", "asyncio", (10, 3, 1), 8, 25, "socket", 100, 2500,
            paced_rate=150.0, paced_seconds=0.5,
        ),
        Spec(
            "mp_bib", "bib", "multiprocess", (2, 1), 4, 50, "socket", 100, 5000,
            paced_rate=300.0, paced_seconds=0.5,
        ),
    )
}


class StampedBibRecord(BibRecord):
    """A ``BibRecord`` that carries the benchmark's event number.

    ``seq`` is a plain attribute, not a ``get_`` accessor: reflection
    does not see it, the pickled payload carries it to the handler.
    """

    def __init__(self, record: BibRecord, seq: int):
        super().__init__(
            record.get_year(),
            record.get_conference(),
            record.get_author(),
            record.get_title(),
        )
        self.seq = seq


def apportion(weights: List[float], seats: int) -> List[int]:
    """Largest-remainder shares of ``seats`` in proportion to ``weights``.

    Subscriptions and events are dealt over the Zipf-ranked records by
    quota, not by independent draws: every segment of every run then
    carries the same number of expected deliveries, and the seeds decide
    which records and positions they fall on.  Independent draws moved
    deliveries per event, and with it events/s, by several percent from
    run to run.
    """
    total = sum(weights)
    exact = [weight * seats / total for weight in weights]
    counts = [int(share) for share in exact]
    by_remainder = sorted(
        range(len(weights)), key=lambda i: exact[i] - counts[i], reverse=True
    )
    for i in by_remainder[: seats - sum(counts)]:
        counts[i] += 1
    return counts


def _spread(counts: List[int]) -> List[int]:
    return [index for index, count in enumerate(counts) for _ in range(count)]


@dataclass
class Segment:
    """Pre-generated traffic plus what the oracle expects of it."""

    kind: str  # "burst" | "paced" | "churn"
    first_seq: int
    #: One list of events per round ("burst" and "paced" have one round).
    rounds: List[list]
    expected: Set[Pair]
    #: Per churn round: subscriptions to end, and (key, filter) to start.
    churn: List[Tuple[List[int], List[Tuple[int, Filter]]]] = field(default_factory=list)

    @property
    def events(self) -> int:
        return sum(len(events) for events in self.rounds)


@dataclass
class SegmentResult:
    """What one segment took (filled in while it runs) and delivered
    (filled in when its deliveries are checked)."""

    kind: str
    events: int
    #: Publish parts only; the churn parts are ``ops_wall_s``.
    wall_s: float = 0.0
    cpu_s: float = 0.0
    refused: int = 0
    #: Paced segments: when each event was due, by position.
    due: List[float] = field(default_factory=list)
    #: How late the paced generator sent each event.
    late_s: List[float] = field(default_factory=list)
    ops: int = 0
    ops_wall_s: float = 0.0
    unjoined: int = 0
    deliveries: int = 0
    latencies_s: List[float] = field(default_factory=list)

    @property
    def timed_s(self) -> float:
        return self.wall_s + self.ops_wall_s


class Bench:
    """One workload: inputs, live system, oracle, failure tally."""

    def __init__(
        self,
        spec: Spec,
        seed: int,
        quick: bool = False,
        engine: Optional[str] = None,
        recorder: Optional[Recorder] = None,
    ):
        scale = QUICK_SCALE if quick else 1.0
        self.spec = spec
        self.seed = seed
        self.engine = engine
        #: Present on ``--trace`` runs; handlers then open a span each.
        self.recorder = recorder
        self.rngs = RngRegistry(seed)
        self.population = RngRegistry(POPULATION_SEED)
        self.subscribers = spec.subscribers
        self.subs_each = spec.subs_each
        if spec.subs_each == 1:
            self.subscribers = max(20, int(spec.subscribers * scale))
        else:
            self.subs_each = max(2, int(spec.subs_each * scale))
        self.segment_events = max(spec.chunk, int(spec.segment_events * scale))
        self.churn_ops = max(2, int(spec.churn_ops * scale)) if spec.churn_ops else 0
        self.churn_rounds = max(1, int(spec.churn_rounds * scale)) if spec.churn_ops else 0
        self.paced_seconds = spec.paced_seconds * (0.4 if quick else 1.0)
        self.warmup_events = max(spec.chunk, self.segment_events // 4)

        self.system: Optional[MultiStageEventSystem] = None
        self.publisher: Any = None
        self.log_dir: Optional[str] = None
        self.worker_pids: List[int] = []
        self.tally = Tally()
        self.examples: List[str] = []
        self.oracle_s = 0.0
        self.setup_s = 0.0
        self.spawn_s = 0.0
        self._records: List[Tuple[int, int, float]] = []
        self._next_seq = 0
        self._shed_seen = 0
        self._brute_force_left = BRUTE_FORCE_RUN_BUDGET
        self._collected_at = 0.0
        self._generate_inputs()

    # ------------------------------------------------------------------
    # Inputs
    # ------------------------------------------------------------------

    @property
    def subscriptions(self) -> int:
        return self.subscribers * self.subs_each

    def _generate_inputs(self) -> None:
        rng = self.population.stream("subscriptions")
        if self.spec.family == "bib":
            config = ScenarioConfig()
            self.universe = BibliographicWorkload(
                self.population.stream("universe"),
                n_years=config.n_years,
                n_conferences=config.n_conferences,
                n_authors=config.n_authors,
                n_records=config.n_records,
                author_exponent=config.author_exponent,
                record_exponent=config.record_exponent,
                sibling_rate=config.sibling_rate,
            )
            self.event_class = BIB_EVENT_CLASS
            self.schema = self.universe.schema
            self._weights = [
                1.0 / (rank + 1) ** config.record_exponent
                for rank in range(len(self.universe.records))
            ]
            picks = _spread(apportion(self._weights, self.subscriptions))
            rng.shuffle(picks)
            self.filters = [
                self.universe.subscription_for(self.universe.records[pick])
                for pick in picks
            ]
            self._quotas: Dict[int, List[int]] = {}
        else:
            self.event_class = QUOTE_CLASS
            self.schema = QUOTE_SCHEMA
            self._domains = (("region", 4), ("sector", 10), ("symbol", self.spec.symbols))
            self._generator = SubscriptionGenerator(self._domains)
            self.filters = [
                self._generator.random_filter(rng) for _ in range(self.subscriptions)
            ]

    def _reset_oracle(self) -> None:
        started = clock()
        self.oracle = Oracle()
        for key, filter_ in enumerate(self.filters):
            self.oracle.add(key, filter_)
        self._next_key = len(self.filters)
        self._oldest_key = 0
        if self.spec.family == "bib":
            # The subscription set of the bib workloads never changes, so
            # a record's expected subscriptions are worked out once, from
            # the meta-data reflection gives for an event of that record.
            self._metadata = [
                to_property_event(StampedBibRecord(record, -1), class_name=self.event_class)
                for record in self.universe.records
            ]
            self._expected_by_record = [
                self.oracle.matching(metadata) for metadata in self._metadata
            ]
        self.oracle_s += clock() - started

    def _quote(self, rng: Any, seq: int) -> PropertyEvent:
        properties = {"class": QUOTE_CLASS}
        for name, domain in self._domains:
            properties[name] = f"{name}-{rng.randrange(domain)}"
        properties["price"] = round(rng.uniform(1.0, 1000.0), 2)
        properties["seq"] = seq
        return PropertyEvent(properties)

    def _make_events(self, count: int, expected: Set[Pair], sample: list) -> list:
        """``count`` events numbered from ``_next_seq``; adds what the
        oracle expects of them to ``expected``, and ``(seq, meta-data,
        expected subscriptions)`` per event to ``sample``."""
        rng = self.rngs.stream("events")
        first = self._next_seq
        self._next_seq += count
        if self.spec.family == "bib":
            quota = self._quotas.get(count)
            if quota is None:
                quota = self._quotas[count] = _spread(apportion(self._weights, count))
            picks = list(quota)
            rng.shuffle(picks)
            records = self.universe.records
            events = []
            for offset, pick in enumerate(picks):
                seq = first + offset
                events.append(StampedBibRecord(records[pick], seq))
                keys = self._expected_by_record[pick]
                expected.update((key, seq) for key in keys)
                sample.append((seq, self._metadata[pick], keys))
            return events
        events = [self._quote(rng, first + offset) for offset in range(count)]
        for event in events:
            seq = event["seq"]
            keys = self.oracle.matching(event)
            expected.update((key, seq) for key in keys)
            sample.append((seq, event, keys))
        return events

    def _check_narrowing(self, sample: list) -> None:
        """Exhaustive evaluation of a few of the round's events."""
        rng = self.rngs.stream("oracle-sample")
        budget = BRUTE_FORCE_BUDGET // max(1, self.churn_rounds)
        if self._brute_force_left < budget:
            return
        self._brute_force_left -= budget
        size = min(len(sample), max(1, budget // max(1, len(self.oracle))))
        for seq, metadata, keys in rng.sample(sample, size):
            if set(self.oracle.brute_force(metadata)) != set(keys):
                self.tally.harness += 1
                self.examples.append(f"oracle narrowing disagrees on event {seq}")

    def _make_segment(self, kind: str, events: Optional[int] = None) -> Segment:
        started = clock()
        expected: Set[Pair] = set()
        segment = Segment(kind, self._next_seq, [], expected)
        if kind == "churn":
            rng = self.population.stream("subscriptions")
            for _ in range(self.churn_rounds):
                # The oracle lives through the round ahead of the system:
                # the sample is checked against the subscriptions of its
                # own round.
                ended = list(range(self._oldest_key, self._oldest_key + self.churn_ops))
                self._oldest_key += self.churn_ops
                started_subs = []
                for key in ended:
                    self.oracle.remove(key)
                for _ in range(self.churn_ops):
                    filter_ = self._generator.random_filter(rng)
                    self.oracle.add(self._next_key, filter_)
                    started_subs.append((self._next_key, filter_))
                    self._next_key += 1
                segment.churn.append((ended, started_subs))
                sample: list = []
                segment.rounds.append(self._make_events(self.spec.chunk, expected, sample))
                self._check_narrowing(sample)
        else:
            if events is None:
                events = (
                    int(self.spec.paced_rate * self.paced_seconds)
                    if kind == "paced"
                    else self.segment_events
                )
            sample = []
            segment.rounds.append(self._make_events(events, expected, sample))
            self._check_narrowing(sample)
        self.oracle_s += clock() - started
        return segment

    # ------------------------------------------------------------------
    # The system under test
    # ------------------------------------------------------------------

    def _handler(self, key: int) -> Callable:
        append = self._records.append
        if self.spec.family == "bib":

            def handler(event, metadata, subscription):
                append((key, event.seq, clock()))

        else:

            def handler(event, metadata, subscription):
                append((key, event["seq"], clock()))

        if self.recorder is not None:
            return traced(self.recorder, HANDLER, handler)
        return handler

    def _subscribe(self, subscriber: Any, key: int, filter_: Filter) -> int:
        made = self.system.subscribe(
            subscriber, filter_, event_class=self.event_class, handler=self._handler(key)
        )
        return made[0].subscription_id

    def build(self) -> None:
        """Construct, advertise, join every subscription, warm up.

        ``setup_s`` covers exactly that; generating the warm-up traffic
        and checking its deliveries happen outside it.
        """
        spec = self.spec
        self._reset_oracle()
        warmup = self._make_segment("burst", self.warmup_events)
        options: Dict[str, Any] = {
            "stage_sizes": spec.stage_sizes,
            "seed": POPULATION_SEED,
            "runtime": spec.runtime,
        }
        if spec.managed:
            WORK_DIR.mkdir(exist_ok=True)
            self.log_dir = tempfile.mkdtemp(prefix=f"{spec.name}-", dir=WORK_DIR)
            _log_dirs.add(self.log_dir)
            options["flow"] = FlowConfig()
            options["log"] = LogConfig(directory=self.log_dir)
        if self.engine is not None:
            options["engine"] = self.engine  # exploratory override only
        gc.collect()
        pin_cpus(None)  # broker processes must not inherit the driver's pin
        started = clock()
        system = self.system = MultiStageEventSystem(**options)
        self.spawn_s = clock() - started
        if spec.runtime == "multiprocess":
            self.worker_pids = [
                snapshot["pid"]
                for snapshot in system.sim.poll_workers().values()
                if "pid" in snapshot
            ]
        pin_cpus(self.worker_pids)
        if spec.family == "bib":
            system.register_type(StampedBibRecord, self.event_class)
        system.advertise(self.event_class, schema=self.schema)
        simulated = spec.runtime == "sim"
        if simulated:
            system.drain()
        self._subs: Dict[int, Tuple[Any, int]] = {}
        runtimes = []
        key = 0
        for index in range(self.subscribers):
            subscriber = system.create_subscriber(f"sub-{index}")
            runtimes.append(subscriber)
            for _ in range(self.subs_each):
                self._subs[key] = (subscriber, self._subscribe(subscriber, key, self.filters[key]))
                key += 1
                if simulated:
                    # Sequential joins, as in the paper's scenario: each
                    # placement sees the filters installed before it.
                    system.drain()
        joined = system.run_until(
            lambda: all(runtime.all_joined() for runtime in runtimes),
            timeout=JOIN_TIMEOUT_S,
            poll=_POLL_S,
        )
        if not joined:
            raise RuntimeError(f"{spec.name}: subscriptions did not join")
        if not simulated:
            system.drain()  # let the brokers finish propagating upwards
        self.publisher = system.create_publisher("feed")
        warmed = self._run(warmup)
        self.setup_s = clock() - started
        self._finish(warmup, warmed)

    def close_system(self) -> None:
        """Tear down the live system and everything it left behind."""
        system, self.system = self.system, None
        try:
            if system is not None:
                for node in system.hierarchy.nodes():
                    log = getattr(node, "log", None)
                    if log is not None:
                        log.close()
                system.close()
        finally:
            sweep()
            self.log_dir = None
            self.worker_pids = []
            # Whoever called (the smoke test runs in-process) gets its
            # CPUs back.
            pin_cpus(None)

    # ------------------------------------------------------------------
    # Segments
    # ------------------------------------------------------------------

    def segment(self, kind: str) -> SegmentResult:
        segment = self._make_segment(kind)
        return self._finish(segment, self._run(segment))

    def settle(self) -> None:
        """After the last segment: whatever still arrives was not expected."""
        if self.spec.runtime != "sim":
            self.system.run_for(0.05)
        if self._records:
            self.tally.unexpected += len(self._records)
            self.examples.append(f"{len(self._records)} deliveries after the last segment")
            self._records.clear()

    def cpu_s(self) -> float:
        """CPU spent so far by the driver and, on ``mp_bib``, its workers."""
        return time.process_time() + sum(worker_cpu_s(pid) for pid in self.worker_pids)

    def _run(self, segment: Segment) -> SegmentResult:
        spec = self.spec
        if segment.kind == "churn":
            run = self._run_churn
        elif segment.kind == "paced":
            run = self._run_paced
        elif spec.mode == "socket":
            run = self._run_socket_burst
        elif spec.mode == "scheduled":
            run = self._run_scheduled
        else:
            run = self._run_chunked
        result = SegmentResult(segment.kind, segment.events)
        if clock() - self._collected_at >= GC_INTERVAL_S:
            gc.collect()
            self._collected_at = clock()
        tracing = self.recorder is not None and self.recorder.active
        if tracing:
            self.recorder.enter(PHASE)
        try:
            run(segment, result)
        finally:
            if tracing:
                self.recorder.exit()
        return result

    @contextmanager
    def _stopwatch(self, result: SegmentResult) -> Iterator[float]:
        """Adds the block's wall and CPU time to ``result``; yields its
        start, for the runs that end at a handler's timestamp instead."""
        cpu = self.cpu_s()
        started = clock()
        yield started
        result.wall_s += clock() - started
        result.cpu_s += self.cpu_s() - cpu

    def _send_run(self, events: list, result: SegmentResult) -> None:
        """One run of a simulator burst, then drain."""
        if self.spec.mode == "publish":
            publish = self.publisher.publish
            for event in events:
                if not publish(event):
                    result.refused += 1
        else:
            result.refused += len(events) - self.publisher.publish_batch(events)
        self.system.drain()

    def _run_chunked(self, segment: Segment, result: SegmentResult) -> None:
        events = segment.rounds[0]
        with self._stopwatch(result):
            for start in range(0, len(events), self.spec.chunk):
                self._send_run(events[start : start + self.spec.chunk], result)

    def _run_scheduled(self, segment: Segment, result: SegmentResult) -> None:
        """One event per simulated millisecond, each from its own timer."""
        events = segment.rounds[0]
        publish = self.publisher.publish
        sim = self.system.sim

        def fire(position: int) -> None:
            if not publish(events[position]):
                result.refused += 1

        with self._stopwatch(result):
            base = sim.now
            for position in range(len(events)):
                sim.schedule_at(base + 0.001 * (position + 1), fire, position)
            self.system.drain()

    def _run_churn(self, segment: Segment, result: SegmentResult) -> None:
        system = self.system
        for (ended, started_subs), events in zip(segment.churn, segment.rounds):
            began = clock()
            for key in ended:
                subscriber, subscription_id = self._subs.pop(key)
                subscriber.unsubscribe(subscription_id)
            fresh = []
            for key, filter_ in started_subs:
                subscriber = system.create_subscriber(f"sub-{key}")
                self._subs[key] = (subscriber, self._subscribe(subscriber, key, filter_))
                fresh.append(subscriber)
            system.drain()
            result.ops_wall_s += clock() - began
            result.ops += len(ended) + len(started_subs)
            result.unjoined += sum(1 for subscriber in fresh if not subscriber.all_joined())
            with self._stopwatch(result):
                self._send_run(events, result)

    def _await_deliveries(self, segment: Segment, extra_s: float) -> float:
        """Drive the loop until every expected delivery arrived; returns
        when the last one did (taken in its handler, so the poll interval
        is not measured)."""
        records = self._records
        wanted = len(segment.expected)
        self.system.run_until(
            lambda: len(records) >= wanted,
            timeout=DELIVERY_TIMEOUT_S + extra_s,
            poll=_POLL_S,
        )
        return records[-1][2] if records else clock()

    def _run_socket_burst(self, segment: Segment, result: SegmentResult) -> None:
        events = segment.rounds[0]
        chunk = self.spec.chunk
        publish = self.publisher.publish
        sim = self.system.sim

        def send(start: int) -> None:
            for event in events[start : start + chunk]:
                if not publish(event):
                    result.refused += 1
            if start + chunk < len(events):
                sim.defer(send, start + chunk)

        with self._stopwatch(result) as started:
            sim.defer(send, 0)
            ended = self._await_deliveries(segment, 0.0)
        result.wall_s = ended - started

    def _run_paced(self, segment: Segment, result: SegmentResult) -> None:
        """Open loop: event ``i`` is due at ``start + i / rate`` whatever
        the system does; latency is taken from the due time, and how late
        the generator itself ran is reported beside it."""
        events = segment.rounds[0]
        interval = 1.0 / self.spec.paced_rate
        publish = self.publisher.publish
        sim = self.system.sim
        position = 0

        def tick() -> None:
            nonlocal position
            while position < len(events) and result.due[position] <= clock():
                result.late_s.append(clock() - result.due[position])
                if not publish(events[position]):
                    result.refused += 1
                position += 1
            if position < len(events):
                sim.schedule(max(0.0, result.due[position] - clock()), tick)

        with self._stopwatch(result) as started:
            result.due = [started + 0.05 + index * interval for index in range(len(events))]
            sim.schedule(0.05, tick)
            ended = self._await_deliveries(segment, len(events) * interval)
        result.wall_s = ended - started

    def _finish(self, segment: Segment, result: SegmentResult) -> SegmentResult:
        """Check the segment's deliveries and fold them into the tally."""
        started = clock()
        records = list(self._records)
        self._records.clear()
        tally = self.tally
        tally.publishes += segment.events
        tally.harness += result.unjoined
        shed = self.system.total_events_shed()
        tally.refused += result.refused + shed - self._shed_seen
        self._shed_seen = shed
        tally.check(segment.expected, ((key, seq) for key, seq, _ in records), self.examples)
        result.deliveries = len(records)
        if result.due:
            first, due = segment.first_seq, result.due
            result.latencies_s = [
                at - due[seq - first]
                for _, seq, at in records
                if 0 <= seq - first < len(due)
            ]
        self.oracle_s += clock() - started
        return result


# ----------------------------------------------------------------------
# Worker processes, from outside (procfs)
# ----------------------------------------------------------------------

_TICKS_PER_S = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100


def worker_cpu_s(pid: int) -> float:
    """utime + stime of one process, 0.0 once it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            fields = stat.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / _TICKS_PER_S


def worker_peak_rss_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


_ALL_CPUS = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else set()


def pin_cpus(worker_pids: Optional[List[int]]) -> None:
    """Give the driver one CPU to itself and the brokers the others;
    ``None`` lifts the pin.

    Left to the scheduler, the single-threaded driver ran in one of two
    modes about 8 % apart from one process to the next (CPU time per
    event included); pinned, ten runs of a seed agree within 2 %.
    """
    if len(_ALL_CPUS) < 2:
        return
    if worker_pids is None:
        os.sched_setaffinity(0, _ALL_CPUS)
        return
    own = max(_ALL_CPUS)
    os.sched_setaffinity(0, {own})
    for pid in worker_pids:
        os.sched_setaffinity(pid, _ALL_CPUS - {own})


#: Log directories of this process's live systems.
_log_dirs: Set[str] = set()


def sweep() -> None:
    """No broker process and no log directory outlives its system,
    whatever ended the run."""
    for child in multiprocessing.active_children():
        child.kill()
        child.join(5)
    while _log_dirs:
        shutil.rmtree(_log_dirs.pop(), ignore_errors=True)
    try:
        WORK_DIR.rmdir()
    except OSError:
        pass  # never made, or another run's logs are still in it


def reap() -> None:
    """Before the process leaves: end, and wait for, what ``sweep`` does
    not see.  ``multiprocessing``'s spawn context starts a resource
    tracker beside the first broker process; it ends only once its pipe
    closes and nobody waits for it, so it outlived every ``mp_bib`` run
    by a moment and stayed behind as a zombie."""
    sweep()
    try:
        from multiprocessing import resource_tracker

        resource_tracker._resource_tracker._stop()  # closes the pipe, waits
    except (ImportError, AttributeError, OSError):
        pass
