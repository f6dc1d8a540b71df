"""One harness: build a system, drive it with steps, check it (DESIGN §17).

A :class:`Scenario` is a simulated :class:`MultiStageEventSystem` with
the harness's event class advertised.  Its step methods are the one
vocabulary — ``subscribe`` (filter *text*, so the parser and
``standardize`` run), ``unsubscribe``, ``publish`` (a burst), ``kill``,
``restore``, ``partition``, ``heal``, ``window`` (loss, duplication and
jitter through the network's :class:`~repro.sim.network.FaultPlan`) and
``run`` — and a schedule is a list of ``(step, *arguments)`` tuples.
Processes are named; a subscriber or publisher is made on first use.

:func:`check` judges a run against the oracle — ``Filter.matches`` over
each event's reflected meta-data, no broker involved — and the overlay
invariants.  :func:`draw_schedule` draws a schedule from a seed; the
chaos sweep is a fixed one.
"""

import random
from collections import Counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.engine import MultiStageEventSystem
from repro.events.base import PropertyEvent
from repro.events.typed import to_property_event
from repro.filters.parser import parse_filter
from repro.overlay.invariants import (
    covering_violations,
    credit_violations,
    placement_violations,
    soft_state_violations,
)
from repro.sim.network import FaultPlan

EVENT_CLASS = "Quote"
SCHEMA = ("class", "symbol", "price")
SYMBOLS = tuple(f"SYM{i}" for i in range(8))

#: Simulated seconds an event is given to reach its subscribers.
SLACK = 0.5
#: TTLs after the last fault closed by which the overlay has converged.
CONVERGENCE_TTLS = 3
#: The step in which :meth:`Scenario.settle` polls for convergence, and
#: the shorter one once only control frames are in flight: a renewal
#: sent at the instant of a poll is acknowledged a round trip later.
SETTLE_SLICE = 0.5
ACK_SLICE = 0.01
#: Steps in a drawn schedule, before the steps closing its faults.
SCHEDULE_LENGTH = 40


class Quote:
    """The harness's typed event; ``uid`` has no getter, so it rides in
    the payload only."""

    def __init__(self, symbol: Any, price: Any, uid: Optional[int] = None):
        self._symbol = symbol
        self._price = price
        self.uid = uid

    def get_symbol(self) -> Any:
        return self._symbol

    def get_price(self) -> Any:
        return self._price


class Published:
    """One published event: when, its meta-data, the subscriptions the
    oracle matched it to, and whether :func:`check` judges it — only if
    it was published with no fault open on a settled overlay and had
    :data:`SLACK` seconds before the next step other than a run."""

    __slots__ = ("at", "metadata", "expected", "judged")

    def __init__(self, at: float, metadata: PropertyEvent, expected, judged: bool):
        self.at, self.metadata, self.expected, self.judged = at, metadata, expected, judged


class Scenario:
    """A system under steps, and the record :func:`check` reads.
    ``schema`` and ``stage_prefixes`` are the advertisement's
    (``None``: the uniform association); other keywords are the
    facade's.  An exception a step's run meets — a receive that raised —
    propagates out of the step."""

    def __init__(
        self,
        schema: Sequence[str] = SCHEMA,
        stage_prefixes: Optional[Sequence[int]] = None,
        **system: Any,
    ):
        self.system = MultiStageEventSystem(**system)
        self.seed = system.get("seed", 0)
        self.system.advertise(EVENT_CLASS, schema=schema, stage_prefixes=stage_prefixes)
        self.system.drain()
        self.brokers = {node.name: node for node in self.system.hierarchy.nodes()}
        self.edge: Dict[str, Any] = {}
        #: ``keys[k]``: (subscriber, subscription id) of the k-th subscribe;
        #: ``live``: the active ones' parsed filters, by subscription id.
        self.keys: List[Tuple[Any, int]] = []
        self.live: Dict[int, Any] = {}
        self.events: List[Published] = []
        #: (subscription id, uid) of every delivery, in arrival order.
        self.log: List[Tuple[int, int]] = []
        self.cut: set = set()
        #: When the last fault with a known end closes (or closed).
        self.fault_until = 0.0
        self.seen_down: set = set()
        self.soft_state: List[str] = []

    def start(self) -> None:
        """Start §4.3 maintenance (subscribers made later start theirs)."""
        self.system.start_maintenance()

    def process(self, name: str, make=None) -> Any:
        """The process called ``name``; a new one is ``make(name)``, a
        subscriber by default."""
        found = self.brokers.get(name) or self.edge.get(name)
        if found is None:
            found = self.edge[name] = (make or self.system.create_subscriber)(name)
        return found

    def _record(self, event: Any, metadata: Any, subscription: Any) -> None:
        uid = event["uid"] if isinstance(event, PropertyEvent) else event.uid
        self.log.append((subscription.subscription_id, uid))

    def apply(self, steps: Sequence[Tuple]) -> None:
        for name, *arguments in steps:
            getattr(self, name)(*arguments)

    # -- the steps --------------------------------------------------------

    def subscribe(self, subscriber: str, text: str, at_node: Optional[str] = None) -> None:
        """Subscribe; ``at_node`` names where to join, bypassing
        Figure-5 placement."""
        self._disturb()
        at = self.process(at_node) if at_node else None
        (subscription,) = self.system.subscribe(
            self.process(subscriber), text, EVENT_CLASS, self._record, at_node=at
        )
        self.keys.append((self.process(subscriber), subscription.subscription_id))
        self.live[subscription.subscription_id] = parse_filter(text)

    def unsubscribe(self, key: int) -> None:
        """End the subscription of the ``key``-th :meth:`subscribe`."""
        self._disturb()
        subscriber, subscription_id = self.keys[key]
        subscriber.unsubscribe(subscription_id)
        self.live.pop(subscription_id, None)

    def publish(self, events: Sequence[dict], publisher: str = "feed", typed: bool = True) -> None:
        """One event per mapping: a :class:`Quote` of its ``symbol`` and
        ``price`` when ``typed``, else a :class:`PropertyEvent` of it."""
        publisher = self.process(publisher, self.system.create_publisher)
        judged = not self.fault_open() and not self.holes()
        for attributes in events:
            uid = len(self.events)
            if typed:
                event: Any = Quote(attributes["symbol"], attributes["price"], uid)
            else:
                event = PropertyEvent(attributes, uid=uid)
            metadata = to_property_event(event, EVENT_CLASS)
            expected = frozenset(s for s, f in self.live.items() if f.matches(metadata))
            self.events.append(Published(self.system.sim.now, metadata, expected, judged))
            publisher.publish(event, event_class=EVENT_CLASS)

    def kill(self, name: str, duration: Optional[float] = None) -> None:
        """Fail-stop; back after ``duration`` when one is given (the
        restart is scheduled first: a delay the kernel refuses kills
        nothing)."""
        self._disturb()
        system, process = self.system, self.process(name)
        if duration is not None:
            system.sim.schedule(duration, system.restore, process)
            self.fault_until = max(self.fault_until, system.sim.now + duration)
        system.kill(process)

    def restore(self, name: str) -> None:
        self._disturb()
        self.system.restore(self.process(name))
        self.fault_until = max(self.fault_until, self.system.sim.now)

    def partition(self, a: str, b: str) -> None:
        self._disturb()
        self.system.network.partition(self.process(a), self.process(b))
        self.cut.add((a, b))

    def heal(self, a: str, b: str) -> None:
        self._disturb()
        self.system.network.heal(self.process(a), self.process(b))
        self.cut.discard((a, b))
        self.fault_until = max(self.fault_until, self.system.sim.now)

    def window(self, duration, loss=0.0, duplicate=0.0, jitter=0.0, start=0.0) -> None:
        """Every link loses, duplicates and delays sends for
        ``duration`` seconds, from ``start`` seconds on."""
        self._disturb()
        network = self.system.network
        if network.faults is None:
            network.install_faults(FaultPlan(seed=self.seed))
        begin = self.system.sim.now + start
        network.faults.add_window(begin, begin + duration, loss, duplicate, jitter)
        self.fault_until = max(self.fault_until, begin + duration)

    def run(self, dt: float) -> None:
        self.system.run_for(dt)
        for name, node in self.brokers.items():
            if node.crashed:
                self.seen_down.add(name)
                self.soft_state += soft_state_violations(node)

    # -- what check reads -------------------------------------------------

    def _disturb(self) -> None:
        """Events still in flight when something happens are not judged."""
        now = self.system.sim.now
        for published in reversed(self.events):
            if now - published.at >= SLACK:
                break
            published.judged = False

    def fault_open(self) -> bool:
        return (
            self.system.sim.now < self.fault_until
            or bool(self.cut)
            or any(p.crashed for p in (*self.brokers.values(), *self.edge.values()))
        )

    def holes(self) -> List[str]:
        """Why the overlay is not settled: a subscription not joined, a
        home without a live lease of the filter it accepted, a covering
        violation between brokers."""
        now, found = self.system.sim.now, []
        for subscriber, sid in self.keys:
            if sid not in self.live:
                continue
            state = subscriber._states[sid]
            if not state.joined:
                found.append(f"{subscriber.name}: subscription {sid} is not joined")
            elif not state.home.leases.is_live(state.stored_filter, subscriber, now):
                found.append(f"{state.home.name} holds no lease of subscription {sid}")
        return found + [str(v) for v in covering_violations(self.system.hierarchy, now)]

    def unconverged(self) -> List[str]:
        """:meth:`holes`, and every control frame not yet acknowledged."""
        return self.holes() + self._unacked()

    def _unacked(self) -> List[str]:
        system = self.system
        busy = [n for n in system.hierarchy.nodes() if not n.uplink_idle]
        busy += [s for s in system.subscribers if not s.control_idle]
        return [f"{p.name}: control frames un-acked" for p in busy]

    def settle(self, deadline: float) -> Optional[float]:
        """Run until converged, in :data:`SETTLE_SLICE` steps up to
        ``deadline``; when it converged, or None.  Frames in flight on an
        otherwise settled overlay get :data:`ACK_SLICE` steps instead,
        one past the deadline too."""
        sim = self.system.sim
        while True:
            holes = self.holes()
            if holes:
                if sim.now >= deadline:
                    return None
                self.run(min(SETTLE_SLICE, deadline - sim.now))
            elif not self._unacked():
                return sim.now
            elif sim.now >= deadline + ACK_SLICE:
                return None
            else:
                self.run(ACK_SLICE)

    def score(self, uids: Sequence[int]) -> Tuple[float, int]:
        """Delivered / expected (subscription, event) pairs over
        ``uids``, and the most copies any one arrived in."""
        copies = Counter(self.log)
        pairs = [copies[sid, uid] for uid in uids for sid in self.events[uid].expected]
        delivered = sum(1 for n in pairs if n)
        return (delivered / len(pairs) if pairs else 1.0), max(pairs, default=0)


def check(scenario: Scenario) -> List[str]:
    """Every violation in ``scenario``, ``[]`` when there is none:

    - what a broker seen down held (an exception out of a receive has
      already propagated out of the step that met it);
    - convergence: :data:`CONVERGENCE_TTLS` TTLs after the last fault
      closed, every active subscription is joined at a home holding its
      lease, no covering hole is open and every control frame is acked
      (time runs on while that bound has not passed and they do not);
    - placement and credit violations;
    - exactly-once against the oracle for every judged event.
    """
    system = scenario.system
    found = list(dict.fromkeys(scenario.soft_state))
    if not scenario.fault_open():
        bound = scenario.fault_until + CONVERGENCE_TTLS * system.ttl
        deadline = max(bound, system.sim.now + SETTLE_SLICE)
        if scenario.settle(deadline) is None:
            found += [f"not converged by t={deadline}: {w}" for w in scenario.unconverged()]
    found += [str(v) for v in placement_violations(system.hierarchy)]
    found += credit_violations(system)
    copies = Counter(scenario.log)
    reached: Dict[int, set] = {}
    for sid, uid in copies:
        reached.setdefault(uid, set()).add(sid)
    for uid, published in enumerate(scenario.events):
        if not published.judged or system.sim.now - published.at < SLACK:
            continue
        for sid in sorted(published.expected | reached.get(uid, set())):
            wanted = int(sid in published.expected)
            if copies[sid, uid] != wanted:
                found.append(
                    f"event {uid} {dict(published.metadata)} reached subscription "
                    f"{sid} {copies[sid, uid]} times, oracle says {wanted}"
                )
    return found


def draw_schedule(scenario: Scenario, seed: int) -> List[Tuple]:
    """A random schedule: subscriptions of three subscribers, bursts,
    runs, and now and then a fault — a kill that ends by itself or by a
    later restore, a subscriber cut off from a broker, a lossy window —
    every one closed by the end."""
    rng = random.Random(seed)
    brokers, subscribers = sorted(scenario.brokers), ("sub-a", "sub-b", "sub-c")
    steps: List[Tuple] = []
    closing: List[Tuple] = []
    keys = 0
    for _ in range(SCHEDULE_LENGTH):
        roll, victim, who = rng.random(), rng.choice(brokers), rng.choice(subscribers)
        if roll < 0.2:
            text = f'symbol = "{rng.choice(SYMBOLS[:3])}" and price < {rng.randrange(2, 12)}'
            steps.append(("subscribe", who, text))
            keys += 1
        elif roll < 0.25 and keys:
            steps.append(("unsubscribe", rng.randrange(keys)))
        elif roll < 0.5:
            burst = [
                {"symbol": rng.choice(SYMBOLS[:3]), "price": rng.randrange(12)}
                for _ in range(rng.randrange(1, 5))
            ]
            steps.append(("publish", burst))
        elif roll < 0.55:
            steps.append(("kill", victim, rng.uniform(0.5, 8.0)))
        elif roll < 0.6:
            steps.append(("kill", victim))
            closing.append(("restore", victim))
        elif roll < 0.65:
            steps.append(("partition", who, victim))
            closing.append(("heal", who, victim))
        elif roll < 0.7:
            steps.append(("window", rng.uniform(0.5, 3.0), 0.3, 0.1, 0.005))
        elif roll < 0.75 and closing:
            steps.append(closing.pop(rng.randrange(len(closing))))
        else:
            steps.append(("run", rng.choice((0.05, 0.5, 2.0, 8.0, 20.0))))
    return steps + closing
