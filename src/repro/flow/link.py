"""One credit-controlled hop: the only description of how it behaves.

Publisher→root, broker→broker child and root→replay requester are the
same kind of edge (DESIGN §10).  A link starts with ``link_window``
credits; the sending end spends one per event it puts on the wire and
parks events in a bounded queue when the window is empty; the receiving
end grants credits back one-for-one as it *processes* (or sheds, not
merely receives) events, so a source's in-flight + queued-there events
never exceed the window.  Grants ride the reliable control channel, so
a grant lost to the wire is retransmitted.  Data frames are best-effort
but numbered, so the receiving end re-credits what the wire swallowed.

A link has incarnations, told apart as the reliable channel tells its
own apart: a frame carries its link's ``epoch``, a grant echoes the
epoch of the frames it pays for, and the receiving end applies
:func:`incarnation` to every frame.  When a peer loses its state the
sending end resets to a full window under a higher epoch: credits spent
on events that died with the crash are forgotten with the incarnation,
and a late grant for them is ignored.

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


def incarnation(
    epoch: Optional[int], expected: int, frame: Any, restarted: Optional[Callable] = None
) -> Optional[int]:
    """The one incarnation rule of every link, reliable or credited: the
    number ``frame`` continues from at a receiver that heard its sender
    at ``epoch`` and expects ``expected`` next.  No state (``epoch`` is
    ``None``): adopt the frame's position, anything earlier being
    unknowable.  A higher epoch: the sender numbers afresh from 0.  A
    lower epoch: ``None``, drop the frame of a dead incarnation.

    A process opens its epochs at ``incarnation << 32``, so the high
    bits of an epoch are the sender's incarnation: only when they rise
    did the sender restart, and ``restarted(incarnation)`` hears of it
    before the frame is admitted.  A rise below them is the sender
    starting its link afresh because it heard that *we* restarted."""
    if epoch is None:
        return frame.seq
    if frame.epoch == epoch:
        return expected
    if frame.epoch < epoch:
        return None
    if restarted is not None and frame.epoch >> 32 > epoch >> 32:
        restarted(frame.epoch >> 32)
    return 0


class LinkSender:
    """The sending end of one credited link: the window the peer grants
    back into, the events waiting for credits (``capacity`` of them;
    ``flow.policy`` sheds past it), the next ``DataFrame`` number and the
    link's epoch."""

    __slots__ = ("window", "queue", "next_seq", "epoch", "_still")

    def __init__(
        self,
        flow: FlowConfig,
        capacity: int,
        priority: Optional[Callable[[Any], float]] = None,
        epoch: int = 0,
    ) -> None:
        self.window = CreditWindow(flow.link_window)
        self.queue = BoundedQueue(capacity, flow.policy, priority=priority)
        self.next_seq = 0
        self.epoch = epoch
        self._still: Optional[Tuple[int, int, int]] = None  # at the last probe

    def offer(self, run: Sequence[Any]) -> Tuple[Optional[Any], List[Any], int]:
        """Spend one credit per event of ``run``; returns ``(frame, shed,
        stalled)``: what may go on the wire now as one numbered frame
        (``None``: nothing), what the full parked queue shed, and how
        many events found no credit.  A stalled event waits behind
        whatever already waits."""
        window, queue = self.window, self.queue
        sendable: List[Any] = []
        shed: List[Any] = []
        for publish in run:
            if not queue and window.take(1):
                sendable.append(publish)
                continue
            shed.extend(queue.offer(publish)[1])
        return self._frame(sendable), shed, len(run) - len(sendable)

    def granted(self, epoch: int, credits: int) -> Optional[Any]:
        """The peer granted ``credits`` back for frames of ``epoch``: the
        frame of parked events they release (``None`` when nothing was
        parked).  A grant for another epoch's frames changes nothing."""
        if epoch != self.epoch:
            return None
        window, queue = self.window, self.queue
        window.grant(credits)
        released: List[Any] = []
        while queue and window.take(1):
            released.append(queue.popleft())
        return self._frame(released)

    def probe(self) -> Optional[Any]:
        """An empty frame numbered next when credits are out and nothing
        was sent or granted since the last call (else ``None``): it shows
        the peer the gap of frames lost at the tail of the traffic."""
        global DataFrame
        still, self._still = self._still, (self.epoch, self.next_seq, self.window.available)
        if still != self._still or self.window.available == self.window.capacity:
            return None
        if DataFrame is None:
            from repro.overlay.messages import DataFrame
        return DataFrame(self.epoch, self.next_seq, ())

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
        shut, the numbering restarts under a higher epoch, and the parked
        events are returned to be shed — the peer's wiped table would
        drop them anyway.  A link with nothing numbered or spent since
        its last reset keeps its epoch: a restart heard twice is one."""
        if self.next_seq or self.window.available < self.window.capacity:
            self.epoch += 1
        self.window.reset()
        self.next_seq = 0
        return self.queue.drain()

    def _frame(self, events: List[Any]) -> Optional[Any]:
        global DataFrame
        if not events:
            return None
        if DataFrame is None:
            from repro.overlay.messages import DataFrame
        frame = DataFrame(self.epoch, self.next_seq, tuple(events))
        self.next_seq += len(events)
        return frame

    def __repr__(self) -> str:
        return (
            f"LinkSender({self.window!r}, parked {len(self.queue)}, "
            f"epoch {self.epoch}, seq {self.next_seq})"
        )


class LinkReceiver:
    """The receiving end of every credited link into one broker: per
    source name, the epoch heard and the next expected frame number."""

    __slots__ = ("link_window", "expected")

    def __init__(self, link_window: int) -> None:
        self.link_window = link_window
        self.expected: Dict[str, Tuple[int, int]] = {}

    def on_frame(
        self, source: str, frame: Any, restarted: Optional[Callable[[int], None]] = None
    ) -> Optional[int]:
        """Account one arriving frame; returns the credits to grant back
        for the gap before it — frames the wire swallowed, capped at one
        window, the most that can be in flight — or ``None``: admit and
        grant nothing, for a dead incarnation's frame (:func:`incarnation`)
        or one already accounted for (a duplicate, or a late frame whose
        gap was granted back).  A source not heard is heard from the
        start of the frame's epoch: a sender that heard a grant from this
        end's previous incarnation hears this one at a higher channel
        epoch, resets first, and takes the gap grant as another epoch's."""
        epoch, expected = self.expected.get(source, (frame.epoch, 0))
        start = incarnation(epoch, expected, frame, restarted)
        if start is None or frame.seq < start:
            return None
        self.expected[source] = (frame.epoch, frame.seq + len(frame.publishes))
        return min(frame.seq - start, self.link_window)

    def __len__(self) -> int:
        return len(self.expected)
