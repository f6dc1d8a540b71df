"""Reliable, ordered control channel between overlay neighbours.

Covering aggregation makes the control plane order-sensitive: a
``Withdraw`` must land after its replacement ``ReqInsert`` or the parent
transiently stops covering the child's filters, and a lossy or jittery
link (``sim.network.FaultPlan``) drops or reorders exactly those.  So
order-sensitive control traffic travels here: per-neighbour sequence
numbers, cumulative acks, duplicate discard, in-order delivery, and
retransmission with capped exponential backoff.  It is an *ordering and
latency* mechanism: the paper's §4.3 renewals remain the safety net.

Epochs handle crash/restart: a sender that loses its state restarts at
``seq`` 0 under a higher ``epoch``; the receiver applies to every frame
:func:`repro.flow.link.incarnation`, as every credited data link does.

A process never holds a sender or receiver itself: :class:`PeerLinks`
owns them all, and is the one place the crash edge, the ``ChannelReset``
edge and the routing of acks to channels are decided.
"""

from collections import OrderedDict, deque
from functools import partial
from typing import Any, Callable, Deque, Dict, Optional, Tuple

from repro.flow.link import incarnation
from repro.overlay.messages import Ack, Sequenced
from repro.runtime.base import Executor, Transport

#: Initial retransmission timeout.  Links default to 1 ms latency, so
#: 50 ms comfortably exceeds one RTT while staying well under the renewal
#: period (fractions of a TTL).
DEFAULT_RTO = 0.05

#: Backoff cap: retransmission intervals double up to this.
MAX_RTO = 2.0


class ReliableSender:
    """Sending half: frames payloads, retransmits until acked.

    Retransmission is go-back-N: one timer per channel; on expiry every
    unacked frame is resent (the receiver discards duplicates).  Each
    application-level send is counted once by the caller; retransmits are
    accounted via ``on_retransmit`` (a frame count) and optionally
    observed in detail via ``observer`` (the frames themselves, for
    tracing).

    The timer callback is **epoch-guarded** (see ``_on_timeout``).

    **Bounded send window**: with ``window`` set, at most that many
    frames are outstanding (unacked) at once; further sends queue as
    raw payloads in ``pending`` and frame up as acks open the window, so
    backpressure lands on ``pending`` instead of the wire.  Receivers
    with a configured capacity advertise their free buffer space on
    every ack (``Ack.credits``), and the sender caps its window to it.
    """

    __slots__ = (
        "sim",
        "send_raw",
        "on_retransmit",
        "observer",
        "window",
        "peer_credits",
        "pending",
        "epoch",
        "next_seq",
        "unacked",
        "rto",
        "_timer",
    )

    def __init__(
        self,
        sim: Executor,
        send_raw: Callable[[Any], None],
        on_retransmit: Optional[Callable[[int], None]] = None,
        observer: Optional[Callable[[int, tuple], None]] = None,
        window: Optional[int] = None,
    ):
        if window is not None and window < 1:
            raise ValueError(f"send window must be >= 1, got {window}")
        self.sim = sim
        #: Puts one frame on the wire (binds owner + peer + network).
        self.send_raw = send_raw
        self.on_retransmit = on_retransmit
        #: Detailed retransmit hook ``observer(epoch, frames)`` for tracing.
        self.observer = observer
        #: Max outstanding frames (``None`` = unbounded, the legacy mode).
        self.window = window
        #: Receiver-advertised buffer space (piggybacked on acks).
        self.peer_credits: Optional[int] = None
        #: Payloads waiting for the window to open (FIFO).
        self.pending: Deque[Any] = deque()
        self.epoch = 0
        self.next_seq = 0
        self.unacked: "OrderedDict[int, Sequenced]" = OrderedDict()
        self.rto = DEFAULT_RTO
        self._timer: Optional[Any] = None

    def _window_full(self) -> bool:
        limit = self.window
        if self.peer_credits is not None:
            limit = self.peer_credits if limit is None else min(limit, self.peer_credits)
        return limit is not None and len(self.unacked) >= limit

    def send(self, payload: Any) -> None:
        """Frame and transmit one payload; retransmit until acked.

        When the send window is closed the payload queues locally and
        goes out (in order) as acks open the window."""
        if self.pending or self._window_full():
            self.pending.append(payload)
            return
        self._transmit(payload)

    def _transmit(self, payload: Any) -> None:
        frame = Sequenced(self.epoch, self.next_seq, payload)
        self.next_seq += 1
        self.unacked[frame.seq] = frame
        self.send_raw(frame)
        self._arm()

    def on_ack(self, ack: Ack) -> None:
        if ack.epoch != self.epoch:
            return
        if ack.credits is not None:
            self.peer_credits = ack.credits
        acked = [seq for seq in self.unacked if seq <= ack.seq]
        if not acked:
            self._drain_pending()
            return
        for seq in acked:
            del self.unacked[seq]
        # Forward progress: restart the backoff from the base timeout.
        self.rto = DEFAULT_RTO
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self._drain_pending()
        if self.unacked:
            self._arm()

    def _drain_pending(self) -> None:
        while self.pending and not self._window_full():
            self._transmit(self.pending.popleft())

    def reset(self) -> None:
        """Start a fresh incarnation of the channel (sender lost state or
        was told the receiver did).  Unacked and pending frames are
        abandoned — the caller follows up with a full state refresh
        (renewal)."""
        self.epoch += 1
        self.next_seq = 0
        self.unacked.clear()
        self.pending.clear()
        self.peer_credits = None
        self.rto = DEFAULT_RTO
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    @property
    def idle(self) -> bool:
        """True when every sent frame has been acknowledged and nothing
        waits for the window."""
        return not self.unacked and not self.pending

    @property
    def outstanding(self) -> int:
        """Frames on the wire awaiting acknowledgement."""
        return len(self.unacked)

    def _arm(self) -> None:
        if self._timer is None:
            self._timer = self.sim.schedule(self.rto, self._on_timeout, self.epoch)

    def _on_timeout(self, armed_epoch: int) -> None:
        if armed_epoch != self.epoch:
            # A timer from before a reset that escaped cancellation (popped
            # in the reset's instant): its frames died with their epoch.
            # Touch nothing — ``_timer`` may be the live epoch's timer, and
            # resending would recount dead frames beside a second loop.
            return
        self._timer = None
        if not self.unacked:
            return
        if self.on_retransmit is not None:
            self.on_retransmit(len(self.unacked))
        if self.observer is not None:
            self.observer(self.epoch, tuple(self.unacked.values()))
        for frame in self.unacked.values():
            self.send_raw(frame)
        self.rto = min(self.rto * 2, MAX_RTO)
        self._arm()


class ReliableReceiver:
    """Receiving half: reorders, deduplicates, acks cumulatively.

    With ``capacity`` set, every ack advertises the remaining reorder
    buffer space (``Ack.credits``), so a window-bounded sender never
    outruns what this receiver can hold out of order."""

    __slots__ = ("epoch", "expected", "buffer", "dups_discarded", "capacity")

    def __init__(self, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"receive capacity must be >= 1, got {capacity}")
        self.epoch: Optional[int] = None
        self.expected = 0
        self.buffer: Dict[int, Sequenced] = {}
        self.dups_discarded = 0
        self.capacity = capacity

    def _ack(self) -> Ack:
        credits = None
        if self.capacity is not None:
            credits = max(0, self.capacity - len(self.buffer))
        return Ack(self.epoch, self.expected - 1, credits)

    def on_frame(
        self, frame: Sequenced, deliver: Callable, restarted: Optional[Callable] = None
    ) -> Ack:
        """Process one frame under :func:`incarnation` (``restarted``
        hears of a higher epoch): deliver any newly in-order payloads
        through ``deliver`` and return the cumulative :class:`Ack` to
        send back — our position, for a dead incarnation's frame."""
        start = incarnation(self.epoch, self.expected, frame, restarted)
        if start is None:
            return self._ack()
        if frame.epoch != self.epoch:
            self.epoch, self.expected = frame.epoch, start
            self.buffer.clear()
        if frame.seq < self.expected or frame.seq in self.buffer:
            self.dups_discarded += 1
        else:
            self.buffer[frame.seq] = frame
            while self.expected in self.buffer:
                ready = self.buffer.pop(self.expected)
                self.expected += 1
                deliver(ready.payload)
        return self._ack()


def retransmit_details(
    peer: str, epoch: int, frames: Tuple[Sequenced, ...]
) -> Tuple[Tuple[str, Any], ...]:
    """The details of a ``retransmit`` span (one shape for every owner)."""
    return (
        ("peer", peer),
        ("epoch", epoch),
        ("frames", len(frames)),
        ("payloads", ",".join(type(f.payload).__name__ for f in frames)),
    )


class PeerLinks:
    """Every reliable link of one process, by peer *name*.

    The name is the stable process identity on a network; an ``id()``
    key would let a recycled object id inherit a dead peer's state.
    Toward each peer there is at most one :class:`ReliableSender`,
    opened by the first :meth:`send`, and from each peer at most one
    :class:`ReliableReceiver`, opened by its first frame — so all the
    owner says to one peer is one ordered stream, and an ``Ack`` only
    ever reaches the channel of the peer that sent it.

    Two edges end a link's incarnation: :meth:`forget`, one peer lost
    its state (``ChannelReset``), and :meth:`reset`, the owner lost its
    own (crash).  Both keep the sender *objects* and reset them, so
    epochs rise monotonically (a fresh object would reuse epoch 0 and be
    dropped as stale by a peer that kept its receiver).

    ``window`` bounds each sender's outstanding frames and is the
    reorder capacity each receiver advertises (``None``: unbounded,
    nothing advertised).  ``on_retransmit(peer name, epoch, frames)``
    hears every timeout resend.
    """

    __slots__ = (
        "owner", "network", "window", "on_retransmit", "_senders", "_receivers", "peers"
    )

    def __init__(
        self,
        owner: Any,
        network: Transport,
        window: Optional[int] = None,
        on_retransmit: Optional[Callable[[str, int, tuple], None]] = None,
    ):
        #: The process whose links these are (frames are sent as it).
        self.owner = owner
        self.network = network
        self.window = window
        self.on_retransmit = on_retransmit
        self._senders: Dict[str, ReliableSender] = {}
        self._receivers: Dict[str, ReliableReceiver] = {}
        #: Every process the owner ever sent to, by name: a crash keeps them.
        self.peers: Dict[str, Any] = {}

    def send(self, peer: Any, payload: Any) -> None:
        """Send one payload to ``peer`` in order, retransmitted until
        acked, behind everything already sent to it."""
        sender = self._senders.get(peer.name)
        if sender is None:
            owner, network, hook = self.owner, self.network, self.on_retransmit
            sender = self._senders[peer.name] = ReliableSender(
                owner.sim,
                lambda frame: network.send(owner, peer, frame),
                observer=partial(hook, peer.name) if hook is not None else None,
                window=self.window,
            )
            self.peers[peer.name] = peer
        sender.send(payload)

    def on_ack(self, sender: Any, ack: Ack) -> None:
        """Route an ack to the channel toward the peer that sent it; an
        ack from a peer the owner never sent to is ignored."""
        channel = self._senders.get(sender.name)
        if channel is not None:
            channel.on_ack(ack)

    def on_frame(
        self,
        frame: Sequenced,
        sender: Any,
        deliver: Callable[[Any], None],
        restarted: Optional[Callable[[], None]] = None,
    ) -> int:
        """Take one frame from ``sender``: newly in-order payloads go
        through ``deliver``, then the cumulative ack goes back.  Returns
        the duplicates discarded.  ``restarted`` hears of a known peer's
        higher epoch before the new incarnation's payload is delivered."""
        receiver = self._receivers.get(sender.name)
        if receiver is None:
            receiver = self._receivers[sender.name] = ReliableReceiver(self.window)
        dups_before = receiver.dups_discarded
        ack = receiver.on_frame(frame, deliver, restarted)
        self.network.send(self.owner, sender, ack)
        return receiver.dups_discarded - dups_before

    def forget(self, peer: Any) -> Optional[int]:
        """``peer`` lost its state: drop what was heard from it, abandon
        what is in flight toward it and open a fresh epoch.  Returns the
        new epoch, or ``None`` when nothing was ever sent to it."""
        self._receivers.pop(peer.name, None)
        sender = self._senders.get(peer.name)
        if sender is None:
            return None
        sender.reset()
        return sender.epoch

    def reset(self) -> None:
        """The owner crashed: every receiver is gone, every sender
        abandons its frames and timer and moves to its next epoch."""
        self._receivers.clear()
        for sender in self._senders.values():
            sender.reset()

    @property
    def idle(self) -> bool:
        """True when every frame sent to any peer has been acknowledged."""
        return all(sender.idle for sender in self._senders.values())
