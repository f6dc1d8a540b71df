"""Kernel order as a checked invariant.

A Hypothesis state machine schedules, cancels, steps and runs a
:class:`Simulator` against a model that is a plain dict keyed by
``(time, seq)``.  Every callback, when the kernel runs it, checks that
its key is the smallest live key of the model and that the clock stands
at its time: pops follow the sorted ``(time, seq)`` reference whatever
mix of delays, ties, zero delays, nested scheduling, cancellations and
compactions came before.  The compaction threshold is lowered on the
machine's simulator so that generated schedules compact often.
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

from repro.sim.kernel import Simulator

#: Few distinct delays, so that same-instant ties are the common case.
delays = st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.0, 2.5])
#: A callback's optional child: the delay it schedules one more event at.
children = st.one_of(st.none(), delays)


class KernelMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.sim = Simulator()
        self.sim.COMPACT_MIN_CANCELLED = 2
        #: (time, seq) -> handle of every scheduled event that has neither
        #: run nor been cancelled.
        self.live = {}
        #: Handles that ran or were cancelled: cancelling one again must
        #: change no order.
        self.done = []
        self.fired = 0
        self.last_seq = -1

    def _track(self, handle):
        assert handle.seq > self.last_seq  # seq is unique and rising
        self.last_seq = handle.seq
        self.live[(handle.time, handle.seq)] = handle

    def _fire(self, child):
        key = min(self.live)
        assert self.sim.now == key[0]
        self.done.append(self.live.pop(key))
        self.fired += 1
        if child is not None:
            self._track(self.sim.schedule(child, self._fire, None))

    @rule(delay=delays, child=children)
    def schedule(self, delay, child):
        handle = self.sim.schedule(delay, self._fire, child)
        assert handle.time == self.sim.now + delay
        self._track(handle)

    @rule(offset=delays, child=children)
    def schedule_at(self, offset, child):
        self._track(self.sim.schedule_at(self.sim.now + offset, self._fire, child))

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def cancel(self, data):
        key = data.draw(st.sampled_from(sorted(self.live)), label="cancelled")
        handle = self.live.pop(key)
        handle.cancel()
        self.done.append(handle)

    @precondition(lambda self: self.done)
    @rule(data=st.data())
    def cancel_again(self, data):
        data.draw(st.sampled_from(self.done), label="stale").cancel()

    @rule()
    def step(self):
        had_live = bool(self.live)
        before = self.fired
        assert self.sim.step() is had_live
        assert self.fired - before == int(had_live)

    @rule(horizon=delays)
    def run_until(self, horizon):
        until = self.sim.now + horizon
        due = sum(1 for key in self.live if key[0] <= until)
        before = self.fired
        executed = self.sim.run(until=until)
        assert executed == self.fired - before >= due  # children may be due too
        assert all(key[0] > until for key in self.live)
        assert self.sim.now == until

    @rule(count=st.integers(0, 4))
    def run_bounded(self, count):
        had_live = len(self.live)
        before = self.fired
        executed = self.sim.run(max_events=count)
        assert executed == self.fired - before
        assert executed == count or not self.live
        assert executed >= min(count, had_live)

    @invariant()
    def kernel_agrees_with_the_model(self):
        assert self.sim.pending_events >= len(self.live)
        assert self.sim.processed_events == self.fired

    def teardown(self):
        self.sim.run()
        assert not self.live
        assert self.sim.processed_events == self.fired


def test_kernel_pops_in_time_seq_order(request):
    """Tier 1 replays the same examples every run; under
    ``--hypothesis-seed`` it explores others."""
    seeded = request.config.getoption("--hypothesis-seed", None) is not None
    run_state_machine_as_test(
        KernelMachine,
        settings=settings(
            max_examples=150,
            stateful_step_count=40,
            deadline=None,
            derandomize=not seeded,
            database=None,
        ),
    )


def test_the_machine_threshold_compacts():
    # The machine lowers the threshold; this pins that doing so really
    # compacts, so its examples run on rebuilt heaps.
    sim = Simulator()
    sim.COMPACT_MIN_CANCELLED = 2
    order = []
    handles = [sim.schedule(float(i % 3), order.append, i) for i in range(6)]
    for handle in handles[::2]:
        handle.cancel()
    assert sim.compactions >= 1
    sim.run()
    assert order == [3, 1, 5]
