"""One credit-controlled hop: the only description of how it behaves.

Publisher→root, broker→broker child and root→replay requester are the
same kind of edge (DESIGN §10).  The scheme is receiver-driven: a link
starts with ``link_window`` credits; the sending end spends one per
event it puts on the wire, and parks events in a bounded per-link queue
when the window is empty; the receiving end grants credits back
one-for-one as it *processes* (or sheds, not merely receives) events,
so a source's in-flight + queued-there events never exceed the window.
Grants travel on the reliable control channel, which makes the loop
loss-proof: a grant dropped by the wire is retransmitted until acked.
Data frames are best-effort but numbered, so the receiving end can
re-credit what a lossy wire swallowed.  Crash handling is
reset-to-full: a restarting peer announces a fresh incarnation
(``ChannelReset`` or a new channel epoch) and both ends discard their
state — credits consumed by events that died with the crash are not
leaked, they are forgotten with the incarnation.  Owners keep what is
theirs: counters, ``shed`` spans, the wire, the link the grants ride.

Two rules hold after every call (``overlay.invariants.credit_violations``
checks them on live systems): ``0 <= available <= capacity``, and
*parked ⇒ window empty* — an event parks only behind parked events or
after a failed ``take``, and a grant releases parked events before
anything newer can spend it, so FIFO order survives a stall.
"""

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.flow.config import FlowConfig
from repro.flow.credits import CreditWindow
from repro.flow.shedding import BoundedQueue

#: ``repro.overlay.messages.DataFrame``, bound by the first frame built:
#: ``repro.overlay`` imports its node module, which imports this one.
DataFrame = None


class LinkSender:
    """The sending end of one credited link: the window the peer grants
    back into, the events waiting for credits (``capacity`` of them;
    ``flow.policy`` sheds past it), the next ``DataFrame`` number."""

    __slots__ = ("window", "queue", "next_seq")

    def __init__(
        self,
        flow: FlowConfig,
        capacity: int,
        priority: Optional[Callable[[Any], float]] = None,
    ) -> None:
        self.window = CreditWindow(flow.link_window)
        self.queue = BoundedQueue(capacity, flow.policy, priority=priority)
        self.next_seq = 0

    def offer(self, run: Sequence[Any]) -> Tuple[Optional[Any], List[Any], int]:
        """Spend one credit per event of ``run``; returns ``(frame, shed,
        stalled)``: what may go on the wire now as one numbered frame
        (``None``: nothing), what the full parked queue shed, and how
        many events found no credit.  A stalled event waits behind
        whatever already waits."""
        window, queue = self.window, self.queue
        sendable: List[Any] = []
        shed: List[Any] = []
        stalled = 0
        for publish in run:
            if not queue and window.take(1):
                sendable.append(publish)
                continue
            stalled += 1
            shed.extend(queue.offer(publish)[1])
        return self._frame(sendable), shed, stalled

    def granted(self, credits: int) -> Optional[Any]:
        """The peer granted ``credits`` back: the frame of parked events
        they release (``None`` when nothing was parked)."""
        window, queue = self.window, self.queue
        window.grant(credits)
        released: List[Any] = []
        while queue and window.take(1):
            released.append(queue.popleft())
        return self._frame(released)

    def take(self) -> bool:
        """Spend one credit for an event that travels outside the data
        frames (a paced replay); False, and nothing spent, when empty."""
        return self.window.take(1)

    @property
    def blocked(self) -> bool:
        """True while events are parked waiting for credits."""
        return bool(self.queue)

    def reset(self) -> List[Any]:
        """The peer lost its state: the credits it held died with its
        incarnation, so the window comes back full rather than leak them
        shut, the numbering restarts, and the parked events are returned
        to be shed — the peer's wiped table would drop them anyway."""
        self.window.reset()
        self.next_seq = 0
        return self.queue.drain()

    def _frame(self, events: List[Any]) -> Optional[Any]:
        global DataFrame
        if not events:
            return None
        if DataFrame is None:
            from repro.overlay.messages import DataFrame
        frame = DataFrame(self.next_seq, tuple(events))
        self.next_seq += len(events)
        return frame

    def __repr__(self) -> str:
        parked = len(self.queue)
        return f"LinkSender({self.window!r}, parked {parked}, seq {self.next_seq})"


class LinkReceiver:
    """The receiving end of every credited link into one broker: the
    next expected data-frame number per source name."""

    __slots__ = ("link_window", "expected")

    def __init__(self, link_window: int) -> None:
        self.link_window = link_window
        self.expected: Dict[str, int] = {}

    def on_frame(self, source: str, frame: Any) -> int:
        """Account one arriving frame; returns the credits to grant back
        for the gap before it.

        ``frame.seq`` numbers the first contained event on this link; a
        jump past the expected number means a lossy link swallowed
        frames whose events had spent sender-side credits.  The missing
        count is capped at one window — the most that can be in flight.
        The first frame from an unknown source adopts its position
        silently: any earlier losses are unknowable.
        """
        expected = self.expected.get(source)
        missing = 0
        if expected is not None and frame.seq > expected:
            missing = min(frame.seq - expected, self.link_window)
        advance = frame.seq + len(frame.publishes)
        if expected is None or advance > expected:
            self.expected[source] = advance
        return missing

    def forget(self, source: str) -> None:
        """``source`` restarted: so does its numbering."""
        self.expected.pop(source, None)

    def __len__(self) -> int:
        return len(self.expected)
