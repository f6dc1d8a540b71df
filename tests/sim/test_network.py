"""Unit tests for the simulated network."""

import pytest

from repro.sim.kernel import Process, SimulationError, Simulator
from repro.sim.network import Network


class Sink(Process):
    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.inbox = []

    def receive(self, message, sender):
        self.inbox.append((message, sender.name, self.sim.now))


@pytest.fixture()
def sim():
    return Simulator()


@pytest.fixture()
def net(sim):
    return Network(sim)


def test_send_delivers_after_latency(sim, net):
    a, b = Sink(sim, "a"), Sink(sim, "b")
    net.connect(a, b, latency=0.5)
    net.send(a, b, "hello")
    sim.run()
    assert b.inbox == [("hello", "a", 0.5)]


def test_links_are_bidirectional(sim, net):
    a, b = Sink(sim, "a"), Sink(sim, "b")
    net.connect(a, b, latency=0.1)
    net.send(b, a, "up")
    sim.run()
    assert a.inbox[0][0] == "up"


def test_send_without_link_raises(sim):
    net = Network(sim, default_latency=None)
    a, b = Sink(sim, "a"), Sink(sim, "b")
    with pytest.raises(SimulationError):
        net.send(a, b, "x")


def test_default_latency_connects_lazily(sim):
    net = Network(sim, default_latency=0.25)
    a, b = Sink(sim, "a"), Sink(sim, "b")
    net.send(a, b, "x")
    sim.run()
    assert b.inbox[0][2] == 0.25
    assert net.link(a, b) is not None


def test_negative_latency_rejected(sim, net):
    a, b = Sink(sim, "a"), Sink(sim, "b")
    with pytest.raises(SimulationError):
        net.connect(a, b, latency=-1.0)


def test_nan_latency_rejected_at_connect(sim, net):
    """Not accepted and left to fail inside whichever process sends
    first (``cannot schedule at t=nan``)."""
    a, b = Sink(sim, "a"), Sink(sim, "b")
    with pytest.raises(SimulationError, match="latency"):
        net.connect(a, b, latency=float("nan"))
    assert net.link(a, b) is None


@pytest.mark.parametrize("latency", [float("nan"), -1.0], ids=["nan", "negative"])
def test_bad_default_latency_rejected_at_construction(sim, latency):
    """Not at the first lazy connect, which a send makes."""
    with pytest.raises(SimulationError, match="latency"):
        Network(sim, default_latency=latency)


def test_facade_rejects_nan_link_latency():
    from repro.core.engine import MultiStageEventSystem

    with pytest.raises(SimulationError, match="latency"):
        MultiStageEventSystem(stage_sizes=(2, 1), link_latency=float("nan"))


def test_per_link_fifo_ordering(sim, net):
    a, b = Sink(sim, "a"), Sink(sim, "b")
    net.connect(a, b, latency=0.5)
    for i in range(5):
        net.send(a, b, i)
    sim.run()
    assert [m for m, _, _ in b.inbox] == [0, 1, 2, 3, 4]


def test_stats_count_messages_and_bytes(sim, net):
    a, b = Sink(sim, "a"), Sink(sim, "b")
    net.connect(a, b)
    net.send(a, b, "payload")
    net.send(a, b, "payload")
    sim.run()
    assert net.stats.total_messages == 2
    assert net.stats.total_bytes > 0
    assert net.stats.messages_by_process["b"] == 2


def test_link_counters(sim, net):
    a, b = Sink(sim, "a"), Sink(sim, "b")
    net.connect(a, b)
    net.send(a, b, "x")
    link = net.link(a, b)
    assert link.messages == 1
    assert net.link(b, a).messages == 0


def test_custom_sizer(sim):
    net = Network(sim, sizer=lambda m: 1000)
    a, b = Sink(sim, "a"), Sink(sim, "b")
    net.connect(a, b)
    net.send(a, b, "x")
    assert net.stats.total_bytes == 1000


def test_disconnect_partitions(sim):
    net = Network(sim, default_latency=None)
    a, b = Sink(sim, "a"), Sink(sim, "b")
    net.connect(a, b)
    net.disconnect(a, b)
    with pytest.raises(SimulationError):
        net.send(a, b, "x")


def test_reconnect_after_partition(sim, net):
    a, b = Sink(sim, "a"), Sink(sim, "b")
    net.connect(a, b)
    net.disconnect(a, b)
    net.connect(a, b, latency=0.1)
    net.send(a, b, "back")
    sim.run()
    assert b.inbox[0][0] == "back"


def test_messages_to_distinct_peers_are_independent(sim, net):
    hub = Sink(sim, "hub")
    spokes = [Sink(sim, f"s{i}") for i in range(3)]
    for spoke in spokes:
        net.connect(hub, spoke, latency=0.1)
    for spoke in spokes:
        net.send(hub, spoke, "tick")
    sim.run()
    assert all(len(s.inbox) == 1 for s in spokes)


def test_partition_drops_silently(sim, net):
    a, b = Sink(sim, "a"), Sink(sim, "b")
    net.connect(a, b)
    net.partition(a, b)
    net.send(a, b, "lost")
    net.send(b, a, "also lost")
    sim.run()
    assert a.inbox == [] and b.inbox == []
    assert net.stats.dropped_messages == 2
    assert net.stats.total_messages == 0


def test_heal_restores_delivery(sim, net):
    a, b = Sink(sim, "a"), Sink(sim, "b")
    net.connect(a, b)
    net.partition(a, b)
    net.send(a, b, "lost")
    net.heal(a, b)
    net.send(a, b, "found")
    sim.run()
    assert [m for m, _, _ in b.inbox] == ["found"]


def test_is_partitioned_is_symmetric(sim, net):
    a, b = Sink(sim, "a"), Sink(sim, "b")
    net.partition(a, b)
    assert net.is_partitioned(a, b)
    assert net.is_partitioned(b, a)
    net.heal(b, a)
    assert not net.is_partitioned(a, b)


def test_partition_is_pairwise(sim, net):
    a, b, c = Sink(sim, "a"), Sink(sim, "b"), Sink(sim, "c")
    net.connect(a, b)
    net.connect(a, c)
    net.partition(a, b)
    net.send(a, c, "ok")
    sim.run()
    assert len(c.inbox) == 1


def test_disconnect_not_undone_by_default_latency(sim):
    """Regression: lazy reconnection used to silently undo disconnect."""
    net = Network(sim, default_latency=0.25)
    a, b = Sink(sim, "a"), Sink(sim, "b")
    net.connect(a, b)
    net.disconnect(a, b)
    with pytest.raises(SimulationError):
        net.send(a, b, "x")
    with pytest.raises(SimulationError):
        net.send(b, a, "x")
    # Unrelated pairs still lazily connect.
    c = Sink(sim, "c")
    net.send(a, c, "ok")
    sim.run()
    assert c.inbox[0][0] == "ok"


def test_explicit_connect_clears_disconnect_tombstone(sim):
    net = Network(sim, default_latency=0.25)
    a, b = Sink(sim, "a"), Sink(sim, "b")
    net.connect(a, b)
    net.disconnect(a, b)
    net.connect(a, b, latency=0.1)
    net.send(a, b, "back")
    sim.run()
    assert b.inbox[0][0] == "back"


def test_duplicate_process_names_rejected(sim, net):
    """Regression: same-name processes merged their traffic counters."""
    a = Sink(sim, "dup")
    b = Sink(sim, "b")
    impostor = Sink(sim, "dup")
    net.connect(a, b)
    with pytest.raises(SimulationError):
        net.connect(impostor, b)
    # The same process reconnecting under its own name is fine.
    net.connect(a, b, latency=0.2)


def test_duplicate_names_rejected_on_lazy_connect(sim):
    net = Network(sim, default_latency=0.1)
    a = Sink(sim, "dup")
    b = Sink(sim, "b")
    impostor = Sink(sim, "dup")
    net.connect(a, b)
    with pytest.raises(SimulationError):
        net.send(impostor, b, "x")


def test_partition_drop_accounts_bytes_and_link(sim, net):
    """Regression: partitioned sends dropped bytes/link counts on the floor."""
    a, b = Sink(sim, "a"), Sink(sim, "b")
    net.connect(a, b)
    net.partition(a, b)
    net.send(a, b, "lost payload")
    sim.run()
    assert net.stats.dropped_messages == 1
    assert net.stats.dropped_bytes > 0
    link = net.link(a, b)
    assert link.dropped_messages == 1
    assert link.dropped_bytes == net.stats.dropped_bytes
    assert link.messages == 0
