"""The credited link on its own (``repro.flow.link``).

One :class:`LinkSender` and one :class:`LinkReceiver` joined by a wire
that can lose data frames, driven by Hypothesis against a model small
enough to read: credits are conserved, frames are numbered contiguously
within an epoch, what is released leaves in FIFO order, and a lost frame
is re-credited by the next one that arrives.  Either end may restart
while frames and grants are in flight; they arrive afterwards, as they
do on a real wire, and the rule of :func:`repro.flow.link.incarnation`
keeps each incarnation's credits apart.  The overlay-level twin of these
rules is ``overlay.invariants.credit_violations``.
"""

from collections import Counter, deque

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
        self.wire = deque()  # data frames toward the receiver, any epoch
        self.held = deque()  # (event, epoch) admitted, not yet served
        self.grants = deque()  # (epoch, credits) on their way back (never lost)
        # The model: what each end must hold.
        self.epoch, self.credits, self.parked, self.numbered = 0, WINDOW, [], 0
        self.incarnations = 0  # the sending process's restarts
        self.heard = None  # the receiver's (epoch, next number)
        self.lost = Counter()  # per epoch: lost since the last frame that arrived
        self.last_wired = -1

    def put_on_wire(self, frame, events):
        """``frame`` must carry exactly ``events``, numbered next."""
        if not events:
            assert frame is None
            return
        assert frame == DataFrame(self.epoch, self.numbered, tuple(events))
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
        epoch = frame.epoch
        if lose:
            self.lost[epoch] += len(frame)
            return
        notices = []
        missing = self.receiver.on_frame(SOURCE, frame, lambda born: notices.append(epoch))
        if self.heard is not None and epoch < self.heard[0]:
            # A dead incarnation's frame: admitted nowhere, granted never.
            assert missing is None and notices == []
            return
        if self.heard is None:
            # The first frame is heard from its epoch's start: the frames
            # before it were lost, or died with a restarted receiver in
            # an epoch the sender has left (whose grants it ignores).
            assert missing == min(frame.seq, WINDOW) and notices == []
            if epoch == self.epoch:
                assert missing == self.lost[epoch]
        else:
            fresh = epoch > self.heard[0]
            start = 0 if fresh else self.heard[1]
            # Only a higher incarnation (the high bits) is a restart.
            restarted = epoch >> 32 > self.heard[0] >> 32
            assert notices == ([epoch] if restarted else [])
            assert missing == self.lost[epoch] == frame.seq - start <= WINDOW
        self.lost[epoch] = 0
        self.heard = (epoch, frame.seq + len(frame))
        self.held.extend((event, epoch) for event in frame.publishes)
        if missing:
            self.grants.append((epoch, missing))

    @precondition(lambda self: self.held)
    @rule(count=st.integers(1, WINDOW))
    def serve(self, count):
        # One credit per served event, for the epoch it came under.
        for _ in range(min(count, len(self.held))):
            _, epoch = self.held.popleft()
            if self.grants and self.grants[-1][0] == epoch:
                self.grants[-1] = (epoch, self.grants[-1][1] + 1)
            else:
                self.grants.append((epoch, 1))

    @precondition(lambda self: self.grants)
    @rule()
    def grant_arrives(self):
        epoch, credits = self.grants.popleft()
        if epoch != self.epoch:
            # Paid for frames of another incarnation: ignored.
            assert self.sender.granted(epoch, credits) is None
            return
        self.credits += credits
        released = self.parked[: self.credits]
        del self.parked[: self.credits]
        self.credits -= len(released)
        self.put_on_wire(self.sender.granted(epoch, credits), released)

    @rule(receiver_restarted=st.booleans())
    def reset(self, receiver_restarted):
        """Either end restarts and the other hears of it at once; what is
        on the wire either way stays there and arrives later."""
        if receiver_restarted:
            # The sender starts over under a new epoch, unless nothing was
            # numbered or spent since its last one.
            assert self.sender.reset() == self.parked
            if self.numbered or self.credits < WINDOW:
                self.epoch += 1
            self.receiver = LinkReceiver(WINDOW)
            self.held.clear()
            self.heard = None
        else:
            # A restarted broker rebuilds its links above every epoch the
            # dead incarnation used; the receiver is told nothing.
            self.incarnations += 1
            self.sender = LinkSender(FLOW, PARKED)
            self.sender.epoch = self.epoch = self.incarnations << 32
        self.credits, self.parked, self.numbered = WINDOW, [], 0

    @invariant()
    def both_ends_hold_what_the_model_holds(self):
        sender = self.sender
        assert sender.window.available == self.credits
        assert list(sender.queue) == self.parked
        assert (sender.epoch, sender.next_seq) == (self.epoch, self.numbered)
        assert sender.blocked == bool(self.parked)
        assert self.receiver.expected.get(SOURCE) == self.heard

    @invariant()
    def credits_are_conserved(self):
        epoch = self.epoch
        away = (
            sum(len(frame) for frame in self.wire if frame.epoch == epoch)
            + sum(1 for _, held in self.held if held == epoch)
            + sum(credits for granted, credits in self.grants if granted == epoch)
            + self.lost[epoch]
        )
        window = self.sender.window
        assert window.available + away == WINDOW
        assert window.surplus == 0  # never granted past its capacity
        assert not (self.parked and window.available)  # parked => window empty


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


#: The example the machine shrank to against the link without epochs
#: (stateful machines take no ``@example``, so it is replayed here): the
#: sender restarts with one event served-but-ungranted at the receiver,
#: spends its new window and parks one event, and the grant for the dead
#: incarnation's event released it — five in flight on a window of four.
SHRUNK = (
    ("offer", {"count": 1}),
    ("head_frame", {"lose": False}),
    ("reset", {"receiver_restarted": False}),
    ("offer", {"count": 5}),
    ("serve", {"count": 1}),
    ("grant_arrives", {}),
)


def test_the_shrunk_example():
    machine = LinkMachine()
    for rule_name, arguments in SHRUNK:
        getattr(machine, rule_name)(**arguments)
        machine.both_ends_hold_what_the_model_holds()
        machine.credits_are_conserved()
    assert machine.sender.window.available == 0 and machine.parked == [5]


def test_a_stalled_event_waits_behind_what_already_waits():
    sender = LinkSender(FlowConfig(link_window=1), 2)
    assert sender.offer(["a", "b"]) == (DataFrame(0, 0, ("a",)), [], 1)
    # One credit back releases "b"; "c", offered before the grant, must
    # not overtake it even though the grant would have covered it.
    assert sender.offer(["c"]) == (None, [], 1)
    assert sender.granted(0, 1) == DataFrame(0, 1, ("b",))
    assert sender.blocked and sender.window.available == 0
    assert sender.granted(0, 5) == DataFrame(0, 2, ("c",))
    assert not sender.blocked and sender.window.available == 0
    assert sender.window.surplus == 4


def test_take_spends_one_credit_outside_the_frames():
    sender = LinkSender(FlowConfig(link_window=2), 1)
    assert sender.take() and sender.take() and not sender.take()
    assert sender.next_seq == 0 and sender.granted(0, 1) is None
    assert sender.take()


def test_reset_returns_the_parked_events_and_starts_over():
    sender = LinkSender(FlowConfig(link_window=1), 4)
    sender.offer(["a", "b", "c"])
    assert sender.reset() == ["b", "c"]
    assert (sender.window.available, sender.next_seq, sender.blocked) == (1, 0, False)
    # The dead epoch's grant for "a" is ignored: the window is already full.
    assert sender.granted(0, 1) is None and sender.window.surplus == 0
    assert sender.offer(["d"])[0] == DataFrame(1, 0, ("d",))


def test_a_reset_with_nothing_out_keeps_the_epoch():
    sender = LinkSender(FlowConfig(link_window=2), 4)
    assert sender.reset() == [] and sender.epoch == 0
    sender.offer(["a"])
    sender.granted(0, 1)
    assert sender.reset() == [] and sender.epoch == 1  # "a" was numbered
    assert sender.reset() == [] and sender.epoch == 1  # heard twice: one restart


def test_a_gap_is_granted_back_capped_at_one_window():
    receiver = LinkReceiver(4)
    # Heard from the epoch's start: frames 0..6 were lost, one window's worth.
    assert receiver.on_frame("p", DataFrame(0, 7, ("x",))) == 4
    assert receiver.on_frame("p", DataFrame(0, 10, ("y", "z"))) == 2
    assert receiver.on_frame("p", DataFrame(0, 100, ("w",))) == 4
    assert receiver.on_frame("p", DataFrame(0, 50, ("late",))) is None  # accounted for
    assert receiver.expected == {"p": (0, 101)} and len(receiver) == 1


def test_one_rule_for_every_epoch():
    receiver, notices = LinkReceiver(4), []
    heard = notices.append
    assert receiver.on_frame("p", DataFrame(5, 3, ("x",)), heard) == 3
    # A higher epoch numbers from 0, and the two frames before this one
    # were lost; the sender reset its link (it heard of our restart) but
    # did not restart itself: its incarnation, the high bits, is the same.
    assert receiver.on_frame("p", DataFrame(6, 2, ("y",)), heard) == 2
    assert notices == [] and receiver.expected == {"p": (6, 3)}
    # Its next incarnation numbers from 0 too, and is the restart.
    assert receiver.on_frame("p", DataFrame(1 << 32, 1, ("z",)), heard) == 1
    assert notices == [1] and receiver.expected == {"p": (1 << 32, 2)}
    # A lower one is a dead incarnation's frame.
    assert receiver.on_frame("p", DataFrame(6, 4, ("w",)), heard) is None
    assert notices == [1] and receiver.expected == {"p": (1 << 32, 2)}
