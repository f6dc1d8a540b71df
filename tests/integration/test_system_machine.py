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

Tier 1 replays the same examples every run (about ten seconds); under
``--hypothesis-seed`` (the ``dst-gates`` CI job, three seeds) it
explores others, four times as many.  The named tests below are the
shrunk examples the machine finds with one fix reverted each.
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
from repro.overlay.invariants import placement_violations
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
    def __init__(self):
        super().__init__()
        self.scenario = None

    @initialize(latency=st.sampled_from([0.001, 0.001, 0.002, NAN]), seed=st.integers(0, 3))
    def build(self, latency, seed):
        if math.isnan(latency):
            # Refused where it is configured, before anything is sent.
            with pytest.raises(SimulationError, match="latency"):
                Scenario(stage_sizes=(2, 2, 1), ttl=5.0, seed=seed, link_latency=latency)
            latency = 0.001
        self.scenario = Scenario(stage_sizes=(2, 2, 1), ttl=5.0, seed=seed, link_latency=latency)
        self.scenario.start()
        self.brokers = {name: RUNNING for name in self.scenario.brokers}
        #: Broker -> when a timed kill ends.
        self.until = {}
        self.cut = set()
        self.keys = []

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
        at_node = LEAF if pinned else None
        if parse_filter(text).matches_nothing:
            with pytest.raises(ValueError):
                self.scenario.subscribe(subscriber, text, at_node)
            return
        self.scenario.subscribe(subscriber, text, at_node)
        self.scenario.run(0.05)  # the join's round trips
        self.keys.append(len(self.keys))

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


def test_system_machine(request):
    seeded = request.config.getoption("--hypothesis-seed", None) is not None
    run_state_machine_as_test(
        SystemMachine,
        settings=settings(
            max_examples=600 if seeded else 150,
            stateful_step_count=30,
            deadline=None,
            derandomize=not seeded,
            database=None,
        ),
    )


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
