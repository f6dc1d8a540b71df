"""The §4.3 periodic tasks as a checked lifecycle.

A Hypothesis state machine drives a broker, a subscriber runtime and a
flow registrar on one simulator through start/stop maintenance, crash,
restart (twice in a row included), the subscriber's disconnect and
reconnect, and runs of simulated time.  A model keeps, per process,
whether maintenance is on and, per declared task, the time its chain
was last armed.  After every step:

- a task that should not run — maintenance off, process crashed, or
  subscriber offline — has no armed chain; one that should has exactly
  one, a live owned timer due one interval after its last arm;
- every tick fired at its last arm time plus k intervals, and no tick
  fired outside a run (a second chain of one task would tick off that
  grid, or tick twice on it).
"""

import hypothesis.strategies as st
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.core.engine import MultiStageEventSystem
from repro.filters.constraints import AttributeConstraint
from repro.filters.filter import Filter
from repro.filters.operators import LT
from repro.streams.registrar import FlowRegistrar

KINDS = ("broker", "subscriber", "registrar")
kinds = st.sampled_from(KINDS)
#: Run lengths around the intervals (1.0 for the renewals at TTL 2,
#: 1.5 for the registrar's at TTL 3, 2.0 for the purge), ties included.
durations = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.5])


class MaintenanceMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        system = MultiStageEventSystem(stage_sizes=(1, 1), ttl=2.0, seed=7)
        system.advertise("Quote", schema=["price", "sym"])
        subscriber = system.create_subscriber("alice")
        system.subscribe(
            subscriber, Filter([AttributeConstraint("price", LT, 10)]), event_class="Quote"
        )
        system.drain()
        self.sim = system.sim
        self.processes = {
            "broker": system.hierarchy.stage1_nodes()[0],
            "subscriber": subscriber,
            "registrar": FlowRegistrar(system.sim, system.network, "registrar", ttl=3.0),
        }
        #: Ticks fired since the last check, by (kind, task).
        self.ticks = {}
        #: The model: whether maintenance is on, and each task's interval
        #: and last arm time (None while disarmed).
        self.on = dict.fromkeys(KINDS, False)
        self.intervals = {}
        self.armed_at = {}
        for kind, process in self.processes.items():
            tasks = process._maintenance_tasks()
            assert tasks  # every process here declares at least one
            for name, interval, _ in tasks:
                self.intervals[kind, name] = interval
                self.armed_at[kind, name] = None
            process._maintenance_tasks = self._recording(kind, process._maintenance_tasks)

    def _recording(self, kind, declared):
        """``declared`` with each body wrapped to log its tick time."""

        def tasks():
            return tuple(
                (name, interval, self._recorded(kind, name, body))
                for name, interval, body in declared()
            )

        return tasks

    def _recorded(self, kind, name, body):
        def run():
            self.ticks.setdefault((kind, name), []).append(self.sim.now)
            body()

        return run

    # -- the model ---------------------------------------------------------

    def _should_run(self, kind):
        process = self.processes[kind]
        return (
            self.on[kind]
            and not process.crashed
            and not (kind == "subscriber" and process.offline)
        )

    def _tasks(self, kind):
        return [key for key in self.armed_at if key[0] == kind]

    def _arm_missing(self, kind):
        for key in self._tasks(kind):
            if self.armed_at[key] is None and self._should_run(kind):
                self.armed_at[key] = self.sim.now

    def _disarm(self, kind):
        for key in self._tasks(kind):
            self.armed_at[key] = None

    # -- rules -------------------------------------------------------------

    @rule(kind=kinds)
    def start(self, kind):
        self.processes[kind].start_maintenance()
        self.on[kind] = True
        self._disarm(kind)  # start re-arms every chain from now
        self._arm_missing(kind)

    @rule(kind=kinds)
    def stop(self, kind):
        self.processes[kind].stop_maintenance()
        self.on[kind] = False
        self._disarm(kind)

    @rule(kind=kinds)
    def crash(self, kind):
        self.processes[kind].crash()
        self._disarm(kind)

    @rule(kind=kinds, twice=st.booleans())
    def restart(self, kind, twice):
        process = self.processes[kind]
        was_down, incarnation = process.crashed, process.incarnation
        process.restart()
        if twice:
            process.restart()  # a restart of a live process is a no-op
        assert process.incarnation == incarnation + was_down
        self._arm_missing(kind)

    @rule(durable=st.booleans())
    def disconnect(self, durable):
        self.processes["subscriber"].disconnect(durable=durable)
        self._disarm("subscriber")

    @precondition(lambda self: self.processes["subscriber"].offline)
    @rule()
    def reconnect(self):
        self.processes["subscriber"].reconnect()
        self._arm_missing("subscriber")

    @rule(duration=durations)
    def run_for(self, duration):
        until = self.sim.now + duration
        self.sim.run(until=until)
        for key, armed in self.armed_at.items():
            expected = []
            if armed is not None:
                # The kernel re-arms at tick time + interval, so the grid
                # is built by the same float additions.
                due = armed + self.intervals[key]
                while due <= until:
                    expected.append(due)
                    armed, due = due, due + self.intervals[key]
                self.armed_at[key] = armed
            assert self.ticks.pop(key, []) == expected, key

    # -- invariants --------------------------------------------------------

    @invariant()
    def only_runs_tick(self):
        assert self.ticks == {}

    @invariant()
    def armed_exactly_as_modelled(self):
        for kind, process in self.processes.items():
            assert process.maintaining == self.on[kind]
            armed = [key[1] for key in self._tasks(kind) if self.armed_at[key] is not None]
            # A tick re-arms its task last, so compare as sets of names.
            assert sorted(process.armed_tasks()) == sorted(armed)
            if not self._should_run(kind):
                assert process.armed_tasks() == ()
            for name, handle in process._periodic.items():
                assert not handle.cancelled and handle in process._owned_timers
                assert handle.time == self.armed_at[kind, name] + self.intervals[kind, name]


def test_periodic_tasks_follow_the_lifecycle():
    run_state_machine_as_test(
        MaintenanceMachine,
        settings=settings(max_examples=60, stateful_step_count=30, deadline=None),
    )
