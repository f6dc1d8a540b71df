"""``PeerLinks``: every reliable link of one process, by peer name.

Unit tests pin the component's edges (lazy open, ack routing, duplicate
and epoch reporting, the ``ChannelReset`` and crash edges, ``idle``); the
Hypothesis model drives it beside hand-managed per-peer
``ReliableSender``/``ReliableReceiver`` pairs over a wire that loses,
duplicates and reorders, and requires identical frames on the wire and
in-order exactly-once payloads per epoch.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from repro.overlay.channel import (
    DEFAULT_RTO,
    PeerLinks,
    ReliableReceiver,
    ReliableSender,
    retransmit_details,
)
from repro.overlay.messages import Ack, ChannelReset, Sequenced
from repro.sim.kernel import Process, Simulator


class _Net:
    """A transport that only records what was put on it."""

    def __init__(self):
        self.sent = []

    def send(self, src, dst, message):
        self.sent.append((src.name, dst.name, message))


def make_links(window=None, hook=None):
    sim = Simulator()
    net = _Net()
    owner = Process(sim, "owner")
    return sim, net, owner, PeerLinks(owner, net, window, hook)


# ----------------------------------------------------------------------
# Edges
# ----------------------------------------------------------------------


def test_links_open_one_sender_per_peer_on_first_send():
    sim, net, owner, links = make_links()
    a, b = Process(sim, "a"), Process(sim, "b")
    assert links._senders == {} and links.idle
    links.send(a, "x")
    links.send(a, "y")
    links.send(b, "z")
    assert list(links._senders) == ["a", "b"]
    assert net.sent == [
        ("owner", "a", Sequenced(0, 0, "x")),
        ("owner", "a", Sequenced(0, 1, "y")),
        ("owner", "b", Sequenced(0, 0, "z")),
    ]
    # The same name through another object is the same link.
    links.send(Process(sim, "a"), "w")
    assert net.sent[-1] == ("owner", "a", Sequenced(0, 2, "w"))


def test_links_ack_reaches_only_the_channel_of_its_sender():
    sim, net, owner, links = make_links()
    a, b, stranger = Process(sim, "a"), Process(sim, "b"), Process(sim, "c")
    links.send(a, "x")
    links.send(b, "y")
    links.on_ack(stranger, Ack(0, 5))  # never sent to: ignored
    links.on_ack(b, Ack(0, 5))
    assert links._senders["b"].idle and not links._senders["a"].idle
    assert not links.idle
    links.on_ack(Process(sim, "a"), Ack(0, 0))  # routed by name, not object
    assert links.idle
    assert "c" not in links._senders


def test_links_on_frame_delivers_acks_and_reports():
    sim, net, owner, links = make_links(window=4)
    a = Process(sim, "a")
    got = []

    def restarted(peer):
        got.append(("restarted", peer.name))

    assert links.on_frame(Sequenced(3, 0, "p"), a, got.append, restarted) == 0
    assert links.on_frame(Sequenced(3, 0, "p"), a, got.append, restarted) == 1
    assert links.on_frame(Sequenced(3, 2, "r"), a, got.append, restarted) == 0
    assert links.on_frame(Sequenced(3, 1, "q"), a, got.append, restarted) == 0
    assert got == ["p", "q", "r"]
    # A higher epoch of the same incarnation: the peer started its link
    # afresh (it heard that we restarted), numbered from 0 — no restart
    # of its own.
    assert links.on_frame(Sequenced(4, 0, "s"), a, got.append, restarted) == 0
    # Its next incarnation: taken before the payload it sent.
    assert links.on_frame(Sequenced(1 << 32, 0, "t"), a, got.append, restarted) == 0
    # A straggler of a dead epoch is acked at our position, not counted.
    assert links.on_frame(Sequenced(4, 1, "u"), a, got.append, restarted) == 0
    assert got == ["p", "q", "r", "s", ("restarted", "a"), "t"]
    # One ack per frame, to the framing peer, advertising the window.
    assert net.sent == [
        ("owner", "a", Ack(3, 0, 4)),
        ("owner", "a", Ack(3, 0, 4)),
        ("owner", "a", Ack(3, 0, 3)),
        ("owner", "a", Ack(3, 2, 4)),
        ("owner", "a", Ack(4, 0, 4)),
        ("owner", "a", Ack(1 << 32, 0, 4)),
        ("owner", "a", Ack(1 << 32, 0, 4)),
    ]


def test_links_wait_for_a_peer_never_heard_from_its_first_frame():
    """An owner that never crashed and never heard a peer acked none of
    its frames, so the peer still holds them all: a later one waits for
    them instead of acking them away (a root's first credit grant, lost
    on the wire, was never retransmitted).  After a crash the owner no
    longer knows whose frames it acked: a first frame mid-stream is
    adopted (a publisher's restart tells the root nothing, and the root's
    grants go on where the dead incarnation acked them), unless the
    restarted owner told that peer."""
    sim, net, owner, links = make_links(window=4)
    a, got = Process(sim, "a"), []
    links.on_frame(Sequenced(0, 1, "q"), a, got.append)
    assert got == [] and net.sent[-1] == ("owner", "a", Ack(0, -1, 3))
    links.on_frame(Sequenced(0, 0, "p"), a, got.append)
    assert got == ["p", "q"]
    links.reset()
    links.on_frame(Sequenced(0, 5, "s"), a, got.append)
    assert got == ["p", "q", "s"] and net.sent[-1] == ("owner", "a", Ack(0, 5, 3 + 1))
    # A peer the restart told starts its link toward the owner afresh,
    # and is waited for from the first frame again.
    b = Process(sim, "b")
    links.tell(b, 1)
    assert net.sent[-1] == ("owner", "b", Sequenced(0, 0, ChannelReset(1)))
    links.on_frame(Sequenced(7, 1, "t"), b, got.append)
    assert got == ["p", "q", "s"]


def test_links_take_and_answer_a_reset():
    """A ``ChannelReset`` announcing a restart is taken, not delivered,
    and answered behind what the rebuild re-sent — also when a frame of
    the new incarnation told of the restart first; an answer to the
    owner's own reset is delivered like any payload."""
    sim, net, owner, links = make_links()
    b, got = Process(sim, "b"), []
    links.on_frame(Sequenced(0, 0, "o"), b, got.append)
    rebuild = lambda peer: links.send(peer, "renewal")  # noqa: E731
    frames = (ChannelReset(1), ChannelReset(0, answer=True), "p")
    for seq in (2, 0, 1):  # the restart is heard first at seq 2
        links.on_frame(Sequenced(1 << 32, seq, frames[seq]), b, got.append, rebuild)
    assert got == ["o", ChannelReset(0, answer=True), "p"]
    assert [m.payload for _, _, m in net.sent if isinstance(m, Sequenced)] == [
        "renewal",
        ChannelReset(1, answer=True),
    ]


def test_links_without_a_window_advertise_nothing():
    sim, net, owner, links = make_links()
    links.on_frame(Sequenced(0, 0, "p"), Process(sim, "a"), lambda payload: None)
    assert net.sent == [("owner", "a", Ack(0, 0, None))]


def test_links_window_bounds_each_sender():
    sim, net, owner, links = make_links(window=2)
    a = Process(sim, "a")
    for payload in "xyz":
        links.send(a, payload)
    assert len(net.sent) == 2 and links._senders["a"].pending
    links.on_ack(a, Ack(0, 0))
    assert net.sent[-1] == ("owner", "a", Sequenced(0, 2, "z"))


def test_links_retransmit_hook_names_the_peer():
    heard = []
    sim, net, owner, links = make_links(
        hook=lambda peer, epoch, frames: heard.append((peer, epoch, frames))
    )
    links.send(Process(sim, "a"), "x")
    sim.run(until=DEFAULT_RTO * 1.5)
    assert heard == [("a", 0, (Sequenced(0, 0, "x"),))]
    assert retransmit_details(*heard[0]) == (
        ("peer", "a"),
        ("epoch", 0),
        ("frames", 1),
        ("payloads", "str"),
    )
    assert len(net.sent) == 2


def test_links_restart_is_the_channel_reset_edge():
    """However the owner hears of a peer's restart — a frame of its new
    incarnation on either kind of link, or its ``ChannelReset`` — it is
    one restart, keyed by the peer's name: what was in flight toward it
    is abandoned under a fresh epoch and the owner rebuilds it; what
    was heard from it stays."""
    sim, net, owner, links = make_links()
    a, b, rebuilt = Process(sim, "a"), Process(sim, "b"), []
    links.restart(a, 1)  # nothing sent before: nothing to abandon
    assert net.sent == [] and "a" not in links._senders
    links.send(a, "x")
    links.send(b, "y")
    links.on_frame(Sequenced(2, 0, "p"), a, lambda payload: None)
    links.restart(a, 2, rebuilt.append)
    assert rebuilt == [a] and links._senders["a"].idle
    assert not links._senders["b"].idle
    links.send(a, "z")
    assert net.sent[-1] == ("owner", "a", Sequenced(1, 0, "z"))
    links.restart(Process(sim, "a"), 2, rebuilt.append)  # the same name
    links.restart(a, 1, rebuilt.append)  # a dead incarnation's news
    assert rebuilt == [a]
    # A duplicate is discarded, a dead epoch's frame dropped, and
    # neither is a restart.
    got = []
    assert links.on_frame(Sequenced(2, 0, "p"), a, got.append, pytest.fail) == 1
    assert links.on_frame(Sequenced(1, 0, "q"), a, got.append, pytest.fail) == 0
    assert got == []
    links.reset()  # the owner crashed: what it heard is gone
    links.restart(a, 2, rebuilt.append)
    assert rebuilt == [a, a]


def test_links_reset_is_the_crash_edge():
    sim, net, owner, links = make_links()
    peers = [Process(sim, name) for name in "abc"]
    epochs = {peer.name: [] for peer in peers}
    for round_ in range(5):
        for peer in peers[: 1 + round_ % 3]:
            links.send(peer, round_)
        links.on_frame(Sequenced(0, round_, "p"), peers[0], lambda payload: None)
        links.reset()
        assert links.idle and links._receivers == {}
        for name, sender in links._senders.items():
            epochs[name].append(sender.epoch)
    # Epochs strictly rise across any number of resets...
    for seen in epochs.values():
        assert seen == sorted(set(seen)) and seen[0] >= 1
    # ...and nothing is armed afterwards: no timer ever resends a frame.
    sent = len(net.sent)
    sim.run()
    assert len(net.sent) == sent and sim.pending_events == 0
    # The restarted owner's first word reopens the link at its
    # incarnation, above every epoch the dead one used.
    owner.incarnation += 1
    links.send(peers[0], "again")
    assert net.sent[-1] == ("owner", "a", Sequenced(1 << 32, 0, "again"))


def test_links_idle_follows_every_sender():
    sim, net, owner, links = make_links(window=1)
    a, b = Process(sim, "a"), Process(sim, "b")
    assert links.idle
    links.send(a, "x")
    links.send(a, "y")  # waits for the window: still not idle once x is acked
    links.send(b, "z")
    links.on_ack(b, Ack(0, 0))
    assert not links.idle
    links.on_ack(a, Ack(0, 0))
    assert not links.idle
    links.on_ack(a, Ack(0, 1))
    assert links.idle
    sim.run()


# ----------------------------------------------------------------------
# Model: PeerLinks beside plain per-peer sender/receiver pairs
# ----------------------------------------------------------------------

PEERS = ("p0", "p1")
WINDOW = 3


class _PairsOwner:
    """The owner's side done by hand: one plain sender and one plain
    receiver per peer, opened the way ``PeerLinks`` documents."""

    def __init__(self, owner, net):
        self.owner, self.net = owner, net
        self.senders, self.receivers, self.heard = {}, {}, {}
        self.crashed = False  # nobody is told in the model

    def send(self, peer, payload):
        opened = self.owner.incarnation << 32
        if peer.name not in self.senders:
            self.senders[peer.name] = ReliableSender(
                self.owner.sim,
                lambda frame: self.net.send(self.owner, peer, frame),
                window=WINDOW,
            )
        if self.senders[peer.name].epoch < opened:
            self.senders[peer.name].reset(opened)
        self.senders[peer.name].send(payload)

    def on_ack(self, sender, ack):
        if sender.name in self.senders:
            self.senders[sender.name].on_ack(ack)

    def on_frame(self, frame, sender, deliver, restarted):
        receiver = self.receivers.get(sender.name)
        if receiver is None:
            receiver = self.receivers[sender.name] = ReliableReceiver(capacity=WINDOW)
            if not self.crashed:
                receiver.epoch = frame.epoch  # wait from the epoch's first frame
        dups = receiver.dups_discarded
        if receiver.epoch is not None and frame.epoch >> 32 > receiver.epoch >> 32:
            self.restart(sender, frame.epoch >> 32, restarted)
        self.net.send(self.owner, sender, receiver.on_frame(frame, deliver))
        return receiver.dups_discarded - dups

    def restart(self, peer, incarnation, rebuild):
        if self.heard.get(peer.name, -1) < incarnation:
            self.heard[peer.name] = incarnation
            if peer.name in self.senders:
                self.senders[peer.name].reset()
            rebuild(peer)

    def reset(self):
        self.receivers.clear()
        self.heard.clear()
        self.crashed = True
        for sender in self.senders.values():
            sender.reset()

    @property
    def idle(self):
        return all(sender.idle for sender in self.senders.values())


class _Wire:
    """Frames in flight, per directed link, deliverable in any order."""

    def __init__(self):
        self.flights = {}

    def send(self, src, dst, message):
        self.flights.setdefault((src.name, dst.name), []).append(message)


class _World:
    """One owner (``PeerLinks`` or the hand-managed pairs) and two
    peers, each peer a plain sender/receiver pair toward the owner."""

    def __init__(self, use_links):
        self.sim = Simulator()
        self.wire = _Wire()
        self.owner_process = Process(self.sim, "owner")
        self.owner = (
            PeerLinks(self.owner_process, self.wire, WINDOW)
            if use_links
            else _PairsOwner(self.owner_process, self.wire)
        )
        self.peers = {name: Process(self.sim, name) for name in PEERS}
        self.peer_senders = {
            name: ReliableSender(
                self.sim,
                lambda frame, peer=peer: self.wire.send(
                    peer, self.owner_process, frame
                ),
                window=WINDOW,
            )
            for name, peer in self.peers.items()
        }
        self.peer_receivers = {name: ReliableReceiver(WINDOW) for name in PEERS}
        #: Receiver incarnation per (receiving end, sending end): a
        #: receiver that lost its state may legitimately re-adopt.
        self.incarnation = {}
        #: (receiver, sender, receiver incarnation, epoch) -> seqs delivered.
        self.delivered = {}
        self.reports = []
        self.next_payload = 0
        self.news = 1 << 16

    def _payload(self):
        self.next_payload += 1
        return self.next_payload

    def _deliverer(self, receiver, sender, frame):
        key = (receiver, sender, self.incarnation.get((receiver, sender), 0))

        def deliver(payload):
            # In-order delivery hands over buffered frames of the
            # arriving frame's epoch; the payload's own seq is what the
            # model tracks.
            self.delivered.setdefault(key + (frame.epoch,), []).append(payload)

        return deliver

    def step(self, step):
        kind = step[0]
        if kind == "send":
            self.owner.send(self.peers[step[1]], self._payload())
        elif kind == "peer_send":
            self.peer_senders[step[1]].send(self._payload())
        elif kind == "tick":
            self.sim.run(until=self.sim.now + step[1])
        elif kind == "reset":
            # A crash, and the restart that brings the next incarnation.
            self.owner.reset()
            self.owner_process.incarnation += 1
            for name in PEERS:
                self._bump("owner", name)
        elif kind == "restart":
            # News of a restart the peer's own frames have not shown.
            self.news += 1
            rebuilt = lambda peer: self.reports.append(("restart", peer.name))  # noqa: E731
            self.owner.restart(self.peers[step[1]], self.news, rebuilt)
        elif kind == "peer_reset":
            peer = self.peers[step[1]]
            peer.incarnation += 1
            self.peer_senders[step[1]].reset(peer.incarnation << 32)
            self.peer_receivers[step[1]] = ReliableReceiver(WINDOW)
            self._bump(step[1], "owner")
        else:
            self._wire_step(*step)

    def _bump(self, receiver, sender):
        key = (receiver, sender)
        self.incarnation[key] = self.incarnation.get(key, 0) + 1

    def _wire_step(self, kind, name, toward_owner, index):
        link = (name, "owner") if toward_owner else ("owner", name)
        flight = self.wire.flights.get(link)
        if not flight:
            return
        index %= len(flight)
        if kind == "duplicate":
            flight.append(flight[index])
            return
        message = flight.pop(index)  # index > 0 is a reordering
        if kind == "lose":
            return
        peer = self.peers[name]
        if toward_owner:
            if isinstance(message, Ack):
                self.owner.on_ack(peer, message)
            else:
                # A new epoch is reported in line with what is handed
                # over, so the two worlds must agree on the order too.
                deliver = self._deliverer("owner", name, message)
                self.reports.append(
                    self.owner.on_frame(
                        message, peer, deliver, lambda peer: deliver("new epoch")
                    )
                )
        elif isinstance(message, Ack):
            self.peer_senders[name].on_ack(message)
        else:
            deliver = self._deliverer(name, "owner", message)
            ack = self.peer_receivers[name].on_frame(message, deliver)
            self.wire.send(peer, self.owner_process, ack)


_peer = st.sampled_from(PEERS)
_steps = st.lists(
    st.one_of(
        st.tuples(st.just("send"), _peer),
        st.tuples(st.just("send"), _peer),
        st.tuples(st.just("peer_send"), _peer),
        st.tuples(
            st.sampled_from(("deliver", "deliver", "deliver", "lose", "duplicate")),
            _peer,
            st.booleans(),
            st.integers(0, 3),
        ),
        st.tuples(st.just("tick"), st.sampled_from((0.01, DEFAULT_RTO, 1.0))),
        st.tuples(st.just("reset")),
        st.tuples(st.just("restart"), _peer),
        st.tuples(st.just("peer_reset"), _peer),
    ),
    max_size=80,
)


@settings(max_examples=300, deadline=None)
@given(_steps)
@example(  # a duplicate that outlives ``restart`` is discarded
    [
        ("peer_send", "p0"),
        ("duplicate", "p0", True, 0),
        ("deliver", "p0", True, 0),
        ("restart", "p0"),
        ("deliver", "p0", True, 0),
    ]
)
@example(  # an ack for the epoch a crash ended clears nothing
    [
        ("send", "p1"),
        ("deliver", "p1", False, 0),
        ("reset",),
        ("send", "p1"),
        ("deliver", "p1", True, 0),
        ("tick", DEFAULT_RTO),
    ]
)
@example(  # a new incarnation is reported before its first payload
    [
        ("peer_send", "p0"),
        ("peer_reset", "p0"),
        ("peer_send", "p0"),
        ("deliver", "p0", True, 0),
        ("deliver", "p0", True, 0),
    ]
)
def test_links_model_against_plain_per_peer_pairs(steps):
    links, pairs = _World(use_links=True), _World(use_links=False)
    sent = {}
    for step in steps:
        links.step(step)
        pairs.step(step)
        # Identical frames on the wire, identical reports to the owner,
        # identical payloads handed over.
        assert links.wire.flights == pairs.wire.flights
        assert links.reports == pairs.reports
        assert links.delivered == pairs.delivered
        assert links.owner.idle == pairs.owner.idle
        assert links.sim.pending_events == pairs.sim.pending_events
        for (src, dst), flight in links.wire.flights.items():
            for message in flight:
                if isinstance(message, Sequenced):
                    sent[(src, dst, message.epoch, message.seq)] = message.payload
    # In order, exactly once, per epoch (and per incarnation of a
    # receiver that lost its state): each run of delivered payloads is a
    # contiguous stretch of what was sent in that epoch.  The "new epoch"
    # report is the model's own marker, not a payload (the two worlds
    # were held to the same markers above).
    for (receiver, sender, _, epoch), delivered in links.delivered.items():
        payloads = [payload for payload in delivered if payload != "new epoch"]
        if not payloads:
            continue
        stream = {
            seq: payload
            for (src, dst, e, seq), payload in sent.items()
            if (src, dst, e) == (sender, receiver, epoch)
        }
        first = next(seq for seq, payload in stream.items() if payload == payloads[0])
        assert payloads == [stream[first + i] for i in range(len(payloads))]
    # After the crash edge nothing is armed on the owner's side.
    links.owner.reset()
    for name in PEERS:
        links.peer_senders[name].reset()
    before = {link: list(flight) for link, flight in links.wire.flights.items()}
    links.sim.run()
    assert links.wire.flights == before
