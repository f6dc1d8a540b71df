"""The whole system as a checked state machine.

A Hypothesis state machine builds a :class:`~repro.experiments.scenario.
Scenario` (three broker stages, TTL 5 s, maintenance on, flow control
off) and drives it with the harness's own steps: subscribe (filter text
over ``symbol`` and ``price``, now and then pinned to one leaf so that a
home holds more states than ``STAGE0_SCAN_MAX``), unsubscribe, publish
bursts of events whose values are awkward (NaN, missing attributes,
tuples, ``2**70``, ``bytes``, ``Decimal(1)``, ``Fraction(1, 2)`` and
``complex(1, 0)`` beside the ints and floats they equal), kill and
restore, partition and heal, loss windows and runs of time.

The model keeps each broker's lifecycle in the states of a broker FSM
(SNIPPETS.md, Hermes ``broker_states``) reduced to what a simulated
broker can be in — running, killed until a restore, or killed until a
set time — and each subscriber/broker pair connected or cut, and offers
only the rules legal in those states.  An exception out of a receive
fails the step that ran into it; after every step every placing
broker's index is its table and every broker seen down held nothing;
at the end every fault is closed and
:func:`~repro.experiments.scenario.check` must find nothing:
exactly-once against the oracle, convergence, covering.

The managed profile (:class:`ManagedMachine`) runs the same machine
with flow control and a durable log on, and three more rules: a joined
subscription catches up once — from an offset, a time or the log's
start — and an online subscriber whose subscriptions have all joined
goes offline, durably or not, until a reconnect.  At its end every
credit is home and no replay session is open.

Tier 1 replays the same examples every run (150 and 50 of them, about
fifteen seconds together); under ``--hypothesis-seed`` (the
``dst-gates`` CI job, three seeds) each explores others, four times as
many.  The named tests below are the shrunk examples the machines find
with one fix reverted each, and, marked ``xfail``, what they found that
is not mended yet.
"""

import math
from decimal import Decimal
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.experiments.scenario import CONVERGENCE_TTLS, SLACK, Scenario, check
from repro.filters.parser import parse_filter
from repro.flow import FlowConfig
from repro.log import LogConfig
from repro.overlay.invariants import credit_violations, placement_violations
from repro.sim.kernel import SimulationError

NAN = math.nan
MISSING = object()
#: Broker lifecycle states.
RUNNING, KILLED, RESTARTING = "running", "killed", "restarting"
SUBSCRIBERS = ("sub-a", "sub-b")
#: The leaf pinned subscriptions join at.
LEAF = "N1.1"

#: Event values, most likely to match first (Hypothesis draws early
#: elements more): the ints and floats beside what equals them but is
#: not them, and what only the pickled fallback carries.
PRICES = (
    1, 1.0, 0.5, 2, Decimal(1), Fraction(1, 2), complex(1, 0), True, 2**70,
    "1", b"1", (1, 2), None, NAN,
)
SYMBOLS = ("SYM1", "SYM2", b"SYM1", 1, (1, 2), NAN)
#: Every price beside every symbol, either of them missing too.
PROBE = tuple(
    {name: value for name, value in (("price", price), ("symbol", symbol)) if value is not MISSING}
    for price in PRICES + (MISSING,)
    for symbol in SYMBOLS + (MISSING,)
)
events = st.one_of(
    st.fixed_dictionaries(
        {"price": st.sampled_from(PRICES)}, optional={"symbol": st.sampled_from(SYMBOLS)}
    ),
    st.fixed_dictionaries({}, optional={"symbol": st.sampled_from(SYMBOLS)}),
)
clauses = {
    "symbol": st.sampled_from(
        ['= "SYM1"', 'prefix "SYM"', '!= "SYM1"', "exists", "= *", "= 1"]
    ),
    "price": st.sampled_from(
        ["= 1", "< 2", "> 0.5", "!= 1", "<= 1", ">= 2", "exists", '= "1"', "= 1.0"]
    ),
}
texts = st.lists(st.sampled_from(sorted(clauses)), min_size=1, max_size=2, unique=True).flatmap(
    lambda names: st.tuples(*(clauses[name] for name in names)).map(
        lambda ops: " and ".join(f"{name} {op}" for name, op in zip(names, ops))
    )
)


class SystemMachine(RuleBasedStateMachine):
    #: The facade's keywords beyond the tree, the TTL and the seed.
    SYSTEM = {}

    def __init__(self):
        super().__init__()
        self.scenario = None

    @initialize(latency=st.sampled_from([0.001, 0.001, 0.002, NAN]), seed=st.integers(0, 3))
    def build(self, latency, seed):
        shape = dict(stage_sizes=(2, 2, 1), ttl=5.0, seed=seed, **self.SYSTEM)
        if math.isnan(latency):
            # Refused where it is configured, before anything is sent.
            with pytest.raises(SimulationError, match="latency"):
                Scenario(link_latency=latency, **shape)
            latency = 0.001
        self.scenario = Scenario(link_latency=latency, **shape)
        self.scenario.start()
        self.brokers = {name: RUNNING for name in self.scenario.brokers}
        #: Broker -> when a timed kill ends.
        self.until = {}
        self.cut = set()
        self.keys = []
        #: Subscriber -> whether it went offline durably; keys caught up.
        self.offline = {}
        self.caught_up = set()

    def _tick(self):
        now = self.scenario.system.sim.now
        for name, until in list(self.until.items()):
            if now >= until:
                self.brokers[name] = RUNNING
                del self.until[name]

    def _in(self, state):
        self._tick()
        return sorted(name for name, held in self.brokers.items() if held == state)

    @rule(subscriber=st.sampled_from(SUBSCRIBERS), text=texts, pinned=st.booleans())
    def subscribe(self, subscriber, text, pinned):
        if subscriber in self.offline:
            return
        at_node = LEAF if pinned else None
        if parse_filter(text).matches_nothing:
            with pytest.raises(ValueError):
                self.scenario.subscribe(subscriber, text, at_node)
            return
        self.scenario.subscribe(subscriber, text, at_node)
        self.scenario.run(0.05)  # the join's round trips
        self.keys.append(len(self.scenario.keys) - 1)

    @precondition(lambda self: self.keys)
    @rule(data=st.data())
    def unsubscribe(self, data):
        key = data.draw(st.sampled_from(self.keys))
        self.keys.remove(key)
        self.scenario.unsubscribe(key)

    @rule(burst=st.lists(events, min_size=1, max_size=4), typed=st.booleans())
    def publish(self, burst, typed):
        typed = typed and all({"symbol", "price"} <= set(event) for event in burst)
        self.scenario.publish(burst, typed=typed)
        self.scenario.run(SLACK)  # judged only once it could arrive

    @precondition(lambda self: self._in(RUNNING))
    @rule(data=st.data(), duration=st.sampled_from([None, 0.5, 3.0, NAN]))
    def kill(self, data, duration):
        victim = data.draw(st.sampled_from(self._in(RUNNING)))
        if duration is not None and math.isnan(duration):
            # A NaN delay is refused by the kernel, and nothing dies.
            with pytest.raises(SimulationError):
                self.scenario.kill(victim, duration)
            assert not self.scenario.brokers[victim].crashed
            return
        self.scenario.kill(victim, duration)
        if duration is None:
            self.brokers[victim] = KILLED
        else:
            self.brokers[victim] = RESTARTING
            self.until[victim] = self.scenario.system.sim.now + duration

    @precondition(lambda self: self._in(KILLED))
    @rule(data=st.data())
    def restore(self, data):
        victim = data.draw(st.sampled_from(self._in(KILLED)))
        self.scenario.restore(victim)
        self.brokers[victim] = RUNNING

    @rule(subscriber=st.sampled_from(SUBSCRIBERS), broker=st.sampled_from(["N3.1", LEAF]))
    def partition(self, subscriber, broker):
        if (subscriber, broker) not in self.cut:
            self.scenario.partition(subscriber, broker)
            self.cut.add((subscriber, broker))

    @precondition(lambda self: self.cut)
    @rule(data=st.data())
    def heal(self, data):
        pair = data.draw(st.sampled_from(sorted(self.cut)))
        self.scenario.heal(*pair)
        self.cut.discard(pair)

    @rule(
        duration=st.sampled_from([0.5, 2.0]),
        loss=st.sampled_from([0.0, 0.3]),
        duplicate=st.sampled_from([0.0, 0.2]),
    )
    def window(self, duration, loss, duplicate):
        self.scenario.window(duration, loss, duplicate, 0.005)

    @rule(dt=st.sampled_from([0.05, 0.5, 2.0, 8.0]))
    def run(self, dt):
        self.scenario.run(dt)

    @invariant()
    def sound_after_every_step(self):
        if self.scenario is None:
            return
        assert placement_violations(self.scenario.system.hierarchy) == []
        assert self.scenario.soft_state == []
        self._tick()
        for name, held in self.brokers.items():
            assert self.scenario.brokers[name].crashed == (held != RUNNING)

    def teardown(self):
        if self.scenario is None:
            return
        scenario = self.scenario
        for name in sorted(self.offline):
            scenario.reconnect(name)
        for name in self._in(KILLED):
            scenario.restore(name)
        for pair in sorted(self.cut):
            scenario.heal(*pair)
        scenario.run(max(scenario.fault_until - scenario.system.sim.now, 0.0) + SLACK)
        # Once settled, every value against every subscription left.
        scenario.settle(scenario.fault_until + CONVERGENCE_TTLS * scenario.system.ttl)
        scenario.publish(PROBE, typed=False)
        scenario.run(SLACK)
        assert check(scenario) == []


class ManagedMachine(SystemMachine):
    """The machine with flow control and a durable log on, and three
    more rules: a joined subscription catches up once, from an offset,
    a time or the log's start, and an online subscriber whose
    subscriptions have all joined goes offline, durably or not, until a
    reconnect.  At the end every credit is home."""

    SYSTEM = dict(flow=FlowConfig(), log=LogConfig())

    def _catchable(self):
        found = []
        for key in self.keys:
            subscriber, sid = self.scenario.keys[key]
            state = subscriber._states[sid]
            if key not in self.caught_up and subscriber.name not in self.offline and state.joined:
                found.append(key)
        return found

    def _online(self):
        edge = self.scenario.edge
        return [
            name
            for name in SUBSCRIBERS
            if name in edge and name not in self.offline and edge[name].all_joined()
        ]

    @precondition(lambda self: self.scenario is not None and self._catchable())
    @rule(data=st.data(), origin=st.sampled_from([(0, None), (None, None), (3, None), (None, 1.0)]))
    def catch_up(self, data, origin):
        key = data.draw(st.sampled_from(self._catchable()))
        self.caught_up.add(key)
        self.scenario.catch_up(key, *origin)

    @precondition(lambda self: self.scenario is not None and self._online())
    @rule(data=st.data(), durable=st.booleans())
    def disconnect(self, data, durable):
        subscriber = data.draw(st.sampled_from(self._online()))
        self.offline[subscriber] = durable
        self.scenario.disconnect(subscriber, durable)

    @precondition(lambda self: self.scenario is not None and self.offline)
    @rule(data=st.data())
    def reconnect(self, data):
        subscriber = data.draw(st.sampled_from(sorted(self.offline)))
        del self.offline[subscriber]
        self.scenario.reconnect(subscriber)

    def teardown(self):
        super().teardown()
        if self.scenario is None:
            return
        system = self.scenario.system
        # A credit lost with a link's last frame comes home by a probe
        # within two renewal periods; a catch-up whose subscription ended
        # before it went live is renewed no more, and the root drops it
        # within one purge period of its lease running out.
        wait = system.ttl
        if system.root._replayer is not None and system.root._replayer.active:
            wait = (system.root.expiry_factor + 1) * system.ttl
        self.scenario.run(wait)
        assert credit_violations(system, quiescent=True) == []


def run_machine(request, machine, examples):
    seeded = request.config.getoption("--hypothesis-seed", None) is not None
    run_state_machine_as_test(
        machine,
        settings=settings(
            max_examples=4 * examples if seeded else examples,
            stateful_step_count=30,
            deadline=None,
            derandomize=not seeded,
            database=None,
        ),
    )


def test_system_machine(request):
    run_machine(request, SystemMachine, 150)


def test_managed_system_machine(request):
    run_machine(request, ManagedMachine, 50)


# ----------------------------------------------------------------------
# Named regressions: the examples the machine shrank to, each against
# the code with one fix reverted (stateful machines take no ``@example``).
# ----------------------------------------------------------------------


def replay(*steps, latency=0.001):
    machine = SystemMachine()
    machine.build(latency=latency, seed=0)
    for name, arguments in steps:
        getattr(machine, name)(**arguments)
        machine.sound_after_every_step()
    machine.teardown()


class _Pick:
    """Stands for ``st.data()``: hands out the given values in order."""

    def __init__(self, *values):
        self.values = list(values)

    def draw(self, strategy):
        return self.values.pop(0)


def test_the_lost_join():
    """The subscriber's renewal task refreshes a pending join: without
    it, a join sent while the root is down is never retried, and the
    subscription is still unjoined three TTLs after the restore."""
    replay(
        ("kill", {"data": _Pick("N3.1"), "duration": None}),
        ("subscribe", {"subscriber": "sub-a", "text": "price = 1", "pinned": False}),
        ("restore", {"data": _Pick("N3.1")}),
    )


def test_decimal_one_beside_one():
    """``price = 1`` does not match ``Decimal(1)``: at a home
    holding more states than the scan serves, the stage-0 engine keyed
    them alike and delivered an event the oracle does not match."""
    subscribe = [
        ("subscribe", {"subscriber": "sub-a", "text": text, "pinned": True})
        for text in ("price = 1", "price = 1.0", "price != 1", "price < 1", "price > 0.5")
    ]
    replay(
        *subscribe,
        ("run", {"dt": 0.5}),
        ("publish", {"burst": [{"price": Decimal(1)}], "typed": False}),
    )


def test_nan_times():
    """The kernel refuses a NaN delay: a kill for a NaN duration
    raises and kills nothing, instead of queuing a restart at NaN."""
    replay(("kill", {"data": _Pick("N2.1"), "duration": NAN}))


def test_nan_link_latency():
    """A NaN link latency is refused where it is configured, not
    at the first send."""
    replay(latency=NAN)


# ----------------------------------------------------------------------
# Named regressions of the managed profile, each shrunk to a schedule.
# ----------------------------------------------------------------------


def managed(**system):
    scenario = Scenario(
        stage_sizes=(2, 2, 1), ttl=5.0, seed=1, flow=FlowConfig(), log=LogConfig(), **system
    )
    scenario.start()
    return scenario


def test_a_publisher_s_first_frame_lost_is_granted_back():
    """The root adopted the position of the first frame it heard from a
    publisher: the frame before it, lost on the wire, kept the
    publisher's window a credit short for good."""
    scenario = managed()
    scenario.apply([("window", 0.0005, 1.0), ("publish", [{"symbol": "SYM1", "price": 1}])])
    scenario.apply([("run", 1.0), ("publish", [{"symbol": "SYM1", "price": 2}]), ("run", 1.0)])
    assert credit_violations(scenario.system, quiescent=True) == []


def test_a_root_s_first_grant_lost_is_sent_again():
    """The publisher adopted the position of the first grant frame it
    heard from the root: the grant before it, lost on the wire, was
    acknowledged away and never retransmitted."""
    scenario = managed()
    # The root grants a millisecond after the publish: only that is lost.
    scenario.apply([("window", 0.0005, 1.0, 0.0, 0.0, 0.0008)])
    # The second grant arrives before the first one's retransmission.
    scenario.apply([("publish", [{"symbol": "SYM1", "price": 1}]), ("run", 0.01)])
    scenario.apply([("publish", [{"symbol": "SYM1", "price": 2}]), ("run", 1.0)])
    assert credit_violations(scenario.system, quiescent=True) == []


def test_a_reconnect_lost_on_the_wire_is_sent_again():
    """``Reconnect`` was fire-and-forget: lost, it left the home holding
    back every event for the subscriber for good."""
    scenario = managed()
    scenario.apply([("subscribe", "alice", "price = 1", LEAF), ("run", 3.0)])
    scenario.apply([("disconnect", "alice", False), ("run", 1.0)])
    scenario.apply([("window", 0.0005, 1.0), ("reconnect", "alice"), ("run", 1.0)])
    scenario.apply([("publish", [{"symbol": "SYM1", "price": 1}]), ("run", 1.0)])
    assert check(scenario) == [] and scenario.score([0]) == (1.0, 1)


def test_a_reconnect_reaches_a_home_whose_subscriptions_ended_meanwhile():
    """``reconnect`` told only the homes of today's subscriptions: one
    whose subscriptions ended while the subscriber was away kept it
    offline, and dropped everything a later subscription there matched."""
    scenario = managed()
    scenario.apply([("subscribe", "alice", "price = 1", LEAF), ("run", 3.0)])
    scenario.apply([("disconnect", "alice", False), ("unsubscribe", 0), ("reconnect", "alice")])
    scenario.apply([("subscribe", "alice", "price = 1", LEAF), ("run", 1.0)])
    scenario.apply([("publish", [{"symbol": "SYM1", "price": 1}]), ("run", 1.0)])
    assert check(scenario) == [] and scenario.score([0]) == (1.0, 1)


def test_a_home_that_restarts_under_a_stale_disconnect_learns_the_subscriber_is_back():
    """A ``Disconnect`` in flight when the home died reached its next
    incarnation, and the ``Reconnect`` sent while it was down was
    abandoned with the old channel at its reset: the home held back
    every event for the subscriber for good."""
    scenario = managed()
    scenario.apply([("subscribe", "alice", "price = 1", LEAF), ("run", 3.0)])
    scenario.apply([("disconnect", "alice", False), ("kill", LEAF), ("reconnect", "alice")])
    scenario.apply([("restore", LEAF), ("run", 1.0)])
    scenario.apply([("publish", [{"symbol": "SYM1", "price": 1}]), ("run", 1.0)])
    assert check(scenario) == [] and scenario.score([0]) == (1.0, 1)


def test_a_catch_up_of_a_subscription_that_had_live_events_delivers_each_once():
    """History covered what the live path had already delivered, and the
    catch-up session, made after those deliveries, did not know them."""
    scenario = managed()
    scenario.apply([("subscribe", "alice", "price = 1", LEAF), ("run", 1.0)])
    scenario.apply([("publish", [{"symbol": "SYM1", "price": 1}]), ("run", 1.0)])
    scenario.apply([("catch_up", 0, 0), ("run", 5.0)])
    assert check(scenario) == [] and scenario.score([0]) == (1.0, 1)


def test_a_catch_up_delivers_what_was_published_while_its_subscription_joined():
    """History stopped at the subscription's start, so an event published
    while it joined, which no live path carried, was never delivered;
    what the live path did carry still arrives once."""
    scenario = managed()
    quote = [{"symbol": "SYM1", "price": 1}]
    scenario.apply([("publish", quote), ("subscribe", "alice", "price = 1", LEAF)])
    scenario.apply([("publish", quote), ("run", 1.0), ("publish", quote), ("run", 1.0)])
    scenario.apply([("catch_up", 0, 0), ("run", 5.0)])
    assert scenario.score(range(3)) == (1.0, 1) and len(scenario.log) == 3
    assert check(scenario) == []


def test_a_catch_up_does_not_deliver_what_a_non_durable_absence_was_not_owed():
    """What was published while the subscriber was away, not durably, is
    owed to no one, and a later catch-up from the log's start leaves it
    out."""
    scenario = managed()
    scenario.apply([("subscribe", "alice", "price = 1", LEAF), ("run", 1.0)])
    scenario.apply([("disconnect", "alice", False), ("run", 1.0)])
    scenario.apply([("publish", [{"symbol": "SYM1", "price": 1}]), ("run", 1.0)])
    scenario.apply([("reconnect", "alice"), ("run", 1.0), ("catch_up", 0, 0), ("run", 5.0)])
    assert scenario.events[0].judged and scenario.log == []
    assert check(scenario) == []


def test_a_catch_up_lost_with_the_root_is_asked_for_again():
    """The root's restart dropped the catch-up session, and nothing asked
    for it again: the history was never delivered."""
    scenario = managed()
    scenario.apply([("publish", [{"symbol": "SYM1", "price": 1}]), ("run", 1.0)])
    scenario.apply([("subscribe", "alice", "price = 1", LEAF), ("run", 1.0)])
    # The root has the request (its session opens) when it dies.
    scenario.apply([("catch_up", 0, 0), ("run", 0.005), ("kill", "N3.1"), ("restore", "N3.1")])
    scenario.apply([("run", 20.0)])
    assert check(scenario) == [] and scenario.score([0]) == (1.0, 1)
    assert scenario.process("alice").catch_up_live(scenario.keys[0][1])


def test_a_catch_up_whose_subscription_ended_is_dropped():
    """A catch-up request that reached the root after its subscription
    ended opened a session that never went live and never closed."""
    scenario = managed()
    scenario.apply([("subscribe", "alice", "price = 1", LEAF), ("run", 1.0)])
    scenario.apply([("partition", "alice", "N3.1"), ("catch_up", 0, 0), ("unsubscribe", 0)])
    scenario.apply([("heal", "alice", "N3.1"), ("run", 25.0)])
    assert not scenario.system.root._replayer.active
    assert credit_violations(scenario.system, quiescent=True) == []


def test_a_publisher_that_only_ever_sent_to_a_dead_root_is_heard():
    """A root that died before it heard a publisher does
    not know it, so its restart reset nothing, and the publisher sat on
    an empty window and its parked events for good; its probe now shows
    the root the gap."""
    scenario = managed()
    quotes = [{"symbol": "SYM1", "price": 1}] * 40
    scenario.apply([("subscribe", "alice", "price = 1", LEAF), ("kill", "N3.1"), ("run", 1.0)])
    scenario.apply([("publish", quotes), ("run", 1.0), ("restore", "N3.1"), ("run", 30.0)])
    scenario.apply([("publish", quotes[:1]), ("run", 5.0)])
    assert check(scenario) == [] and scenario.score([40]) == (1.0, 1)
    assert credit_violations(scenario.system, quiescent=True) == []


def test_a_root_restart_heard_late_loses_nothing_published_after_it():
    """A publisher that missed the root's ``ChannelReset`` hears of the
    restart at the first grant of the new incarnation, and shed what it
    had parked meanwhile, although published after the restart."""
    scenario = managed()
    quotes = [{"symbol": "SYM1", "price": 1}] * 40
    scenario.apply([("subscribe", "alice", "price = 1", LEAF), ("run", 1.0)])
    scenario.apply([("publish", quotes[:1]), ("run", 1.0), ("kill", "N3.1"), ("run", 1.0)])
    scenario.apply([("window", 0.0005, 1.0), ("restore", "N3.1"), ("run", 30.0)])
    scenario.apply([("publish", quotes), ("run", 5.0)])
    assert check(scenario) == [] and scenario.process("feed").counters.sheds_by_reason == {}


def test_a_credit_lost_with_the_last_frame_comes_home():
    """The one frame toward a stage-2 broker is lost and its subscription
    ends: no later frame showed the gap, and the window stayed a credit
    short for good until a stalled link came to probe its peer."""
    scenario = managed()
    scenario.apply([("subscribe", "alice", "price = 1", LEAF), ("run", 1.0)])
    # Only the root's forward (sent a millisecond after the publish) is lost.
    scenario.apply([("window", 0.0005, 1.0, 0.0, 0.0, 0.0008)])
    scenario.apply([("publish", [{"symbol": "SYM1", "price": 1}]), ("run", 1.0)])
    scenario.apply([("unsubscribe", 0), ("run", 30.0)])
    assert credit_violations(scenario.system, quiescent=True) == []
