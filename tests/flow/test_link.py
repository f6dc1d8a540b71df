"""The credited link on its own (``repro.flow.link``).

One :class:`LinkSender` and one :class:`LinkReceiver` joined by a wire
that can lose data frames, driven by Hypothesis against a model small
enough to read: credits are conserved, frames are numbered contiguously,
what is released leaves in FIFO order, and a lost frame is re-credited
by the next one that arrives.  The overlay-level twin of these rules is
``overlay.invariants.credit_violations``.
"""

from collections import deque

import hypothesis.strategies as st
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.flow import FlowConfig, LinkReceiver, LinkSender
from repro.overlay.messages import DataFrame

WINDOW = 4
PARKED = 3
FLOW = FlowConfig(link_window=WINDOW)  # drop_tail: a full queue sheds the arrival
SOURCE = "sender"


class LinkMachine(RuleBasedStateMachine):
    """Sender → lossy wire → receiver → reliable grants → sender."""

    def __init__(self):
        super().__init__()
        self.sender = LinkSender(FLOW, PARKED)
        self.receiver = LinkReceiver(WINDOW)
        self.events = iter(range(10**9))
        self.start_over()

    def start_over(self):
        """Both ends in a fresh incarnation, nothing in flight."""
        self.wire = deque()  # data frames toward the receiver
        self.held = deque()  # events admitted, not yet served
        self.grants = deque()  # credits on their way back (never lost)
        # The model: what each end must hold.
        self.credits, self.parked, self.numbered = WINDOW, [], 0
        self.expected = None  # the receiver's next number
        self.lost = 0  # events lost since the last frame that arrived
        self.leaked = 0  # events lost before the receiver's first frame
        self.last_wired = -1

    def put_on_wire(self, frame, events):
        """``frame`` must carry exactly ``events``, numbered next."""
        if not events:
            assert frame is None
            return
        assert frame == DataFrame(self.numbered, tuple(events))
        assert events[0] > self.last_wired and events == sorted(events)  # FIFO
        self.last_wired = events[-1]
        self.numbered += len(events)
        self.wire.append(frame)

    @rule(count=st.integers(0, 5))
    def offer(self, count):
        run = [next(self.events) for _ in range(count)]
        sendable, shed = [], []
        for event in run:
            if not self.parked and self.credits:
                self.credits -= 1
                sendable.append(event)
            elif len(self.parked) < PARKED:
                self.parked.append(event)
            else:
                shed.append(event)
        frame, was_shed, stalled = self.sender.offer(run)
        assert (was_shed, stalled) == (shed, count - len(sendable))
        self.put_on_wire(frame, sendable)

    @precondition(lambda self: self.wire)
    @rule(lose=st.booleans())
    def head_frame(self, lose):
        frame = self.wire.popleft()
        if lose:
            self.lost += len(frame)
            return
        missing = self.receiver.on_frame(SOURCE, frame)
        if self.expected is None:
            # The first frame adopts its position: earlier losses are
            # unknowable, and their credits are gone for this incarnation.
            assert missing == 0
            self.leaked, self.lost = self.leaked + self.lost, 0
        else:
            assert missing == self.lost == frame.seq - self.expected <= WINDOW
            self.lost = 0
        self.expected = frame.seq + len(frame)
        self.held.extend(frame.publishes)
        if missing:
            self.grants.append(missing)

    @precondition(lambda self: self.held)
    @rule(count=st.integers(1, WINDOW))
    def serve(self, count):
        served = [self.held.popleft() for _ in range(min(count, len(self.held)))]
        self.grants.append(len(served))  # one credit per served event

    @precondition(lambda self: self.grants)
    @rule()
    def grant_arrives(self):
        credits = self.grants.popleft()
        self.credits += credits
        released = self.parked[: self.credits]
        del self.parked[: self.credits]
        self.credits -= len(released)
        self.put_on_wire(self.sender.granted(credits), released)

    @rule(receiver_restarted=st.booleans())
    def reset(self, receiver_restarted):
        """Either end restarts; the other hears of it at once, and what
        was in flight between the two incarnations is gone."""
        if receiver_restarted:
            assert self.sender.reset() == self.parked
            self.receiver = LinkReceiver(WINDOW)
        else:
            self.sender = LinkSender(FLOW, PARKED)
            self.receiver.forget(SOURCE)
        self.start_over()

    @invariant()
    def both_ends_hold_what_the_model_holds(self):
        sender = self.sender
        assert sender.window.available == self.credits
        assert list(sender.queue) == self.parked
        assert sender.next_seq == self.numbered
        assert sender.blocked == bool(self.parked)
        assert self.receiver.expected.get(SOURCE) == self.expected

    @invariant()
    def credits_are_conserved(self):
        in_flight = sum(len(frame) for frame in self.wire)
        away = in_flight + len(self.held) + sum(self.grants) + self.lost + self.leaked
        assert self.credits + away == WINDOW
        assert not (self.parked and self.credits)  # parked => window empty


def test_link_machine(request):
    """Tier 1 replays the same examples every run; under
    ``--hypothesis-seed`` (``overload-gates``: three seeds) it explores
    others."""
    seeded = request.config.getoption("--hypothesis-seed", None) is not None
    run_state_machine_as_test(
        LinkMachine,
        settings=settings(
            max_examples=150,
            stateful_step_count=40,
            deadline=None,
            derandomize=not seeded,
            database=None,
        ),
    )


def test_a_stalled_event_waits_behind_what_already_waits():
    sender = LinkSender(FlowConfig(link_window=1), 2)
    assert sender.offer(["a", "b"]) == (DataFrame(0, ("a",)), [], 1)
    # One credit back releases "b"; "c", offered before the grant, must
    # not overtake it even though the grant would have covered it.
    assert sender.offer(["c"]) == (None, [], 1)
    assert sender.granted(1) == DataFrame(1, ("b",))
    assert sender.blocked and sender.window.available == 0
    assert sender.granted(5) == DataFrame(2, ("c",))
    assert not sender.blocked and sender.window.available == 0


def test_take_spends_one_credit_outside_the_frames():
    sender = LinkSender(FlowConfig(link_window=2), 1)
    assert sender.take() and sender.take() and not sender.take()
    assert sender.next_seq == 0 and sender.granted(1) is None
    assert sender.take()


def test_reset_returns_the_parked_events_and_starts_over():
    sender = LinkSender(FlowConfig(link_window=1), 4)
    sender.offer(["a", "b", "c"])
    assert sender.reset() == ["b", "c"]
    assert (sender.window.available, sender.next_seq, sender.blocked) == (1, 0, False)
    assert sender.offer(["d"])[0] == DataFrame(0, ("d",))


def test_a_gap_is_granted_back_capped_at_one_window():
    receiver = LinkReceiver(4)
    assert receiver.on_frame("p", DataFrame(7, ("x",))) == 0  # adopted silently
    assert receiver.on_frame("p", DataFrame(10, ("y", "z"))) == 2
    # More than a window cannot have been in flight: an incarnation
    # mismatch, where a full window is the deadlock-free answer.
    assert receiver.on_frame("p", DataFrame(100, ("w",))) == 4
    assert receiver.on_frame("p", DataFrame(50, ("late",))) == 0  # stale: no regress
    assert receiver.expected == {"p": 101} and len(receiver) == 1
    receiver.forget("p")
    assert receiver.on_frame("p", DataFrame(0, ("again",))) == 0
