"""The boundary of ``Network.send``'s fast path.

A send over a live link with no fault plan, no partition and both ends
up is booked inline; every other case goes through ``_send_checked``.
For each case on either side of that line — partition then heal, a
crashed source or destination, a crash while a copy is in flight, an
installed fault plan, disconnect then connect, and the lazy connection a
default latency makes — the scenario runs twice: on the real network and
on one whose every send takes the checked path.  The two must book the
same ledger (totals, drops, duplicates, per-process and per-link counts,
in-flight gauge, what each process received and when, the wire spans),
and the totals must be the values recorded before the fast path existed.
"""

import pytest

from repro.obs.tracing import EventTracer
from repro.sim.kernel import Process, SimulationError, Simulator
from repro.sim.network import FaultPlan, Network


class Sink(Process):
    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.inbox = []

    def receive(self, message, sender):
        self.inbox.append((message, sender.name, self.sim.now))


class CheckedNetwork(Network):
    """Every send through the checked path: the reference."""

    def send(self, src, dst, message):
        self._send_checked(src, dst, message)


def _payload(label, size):
    """A message the default sizer prices at ``size + 2`` bytes (its repr)."""
    return label.ljust(size, ".")


def partition_then_heal(sim, net, a, b):
    net.connect(a, b, latency=0.5)
    net.send(a, b, _payload("before", 20))
    net.partition(a, b)
    net.send(a, b, _payload("cut", 30))
    net.send(b, a, _payload("cut-back", 40))
    sim.run()
    net.heal(a, b)
    net.send(a, b, _payload("after", 50))
    net.send(b, a, _payload("after-back", 60))


def crashed_source_or_destination(sim, net, a, b):
    net.connect(a, b, latency=0.1)
    a.crash()
    net.send(a, b, _payload("from-down", 21))
    net.send(b, a, _payload("to-down", 22))
    a.restart()
    b.crash()
    net.send(a, b, _payload("to-down-again", 23))
    b.restart()
    net.send(a, b, _payload("both-up", 24))


def crash_in_flight(sim, net, a, b):
    net.connect(a, b, latency=1.0)
    net.send(a, b, _payload("doomed", 31))
    net.send(b, a, _payload("unharmed", 32))
    sim.schedule(0.5, b.crash)
    sim.run()
    b.restart()
    net.send(a, b, _payload("survivor", 33))


def installed_faults(sim, net, a, b):
    net.connect(a, b, latency=0.1)
    net.send(a, b, _payload("clean", 25))
    sim.run()
    plan = FaultPlan(seed=7)
    plan.add_window(0.0, 10.0, loss=0.3, duplicate=0.3, jitter=0.05)
    plan.add_crash(b, at=20.0, duration=5.0)
    net.install_faults(plan)
    for index in range(24):
        net.send(a, b, _payload(f"m{index}", 16 + index))
    sim.run(until=21.0)
    net.send(a, b, _payload("to-crashed", 41))
    sim.run(until=30.0)
    net.send(a, b, _payload("after-the-windows", 42))


def disconnect_then_connect(sim, net, a, b):
    net.connect(a, b, latency=0.1)
    net.send(a, b, _payload("first", 26))
    sim.run()
    net.disconnect(a, b)
    with pytest.raises(SimulationError):
        net.send(a, b, _payload("refused", 27))
    with pytest.raises(SimulationError):
        net.send(b, a, _payload("refused-back", 28))
    net.connect(a, b, latency=0.3)
    net.send(a, b, _payload("again", 29))


def lazy_default_latency_connect(sim, net, a, b):
    net.send(a, b, _payload("connects", 34))
    net.send(a, b, _payload("rides-the-link", 35))
    net.send(b, a, _payload("back", 36))


#: name -> (scenario, the network's default latency)
SCENARIOS = {
    "partition_then_heal": (partition_then_heal, None),
    "crashed_source_or_destination": (crashed_source_or_destination, None),
    "crash_in_flight": (crash_in_flight, None),
    "installed_faults": (installed_faults, None),
    "disconnect_then_connect": (disconnect_then_connect, 0.25),
    "lazy_default_latency_connect": (lazy_default_latency_connect, 0.25),
}

#: (messages, bytes, dropped messages, dropped bytes, duplicated
#: messages) per scenario, as recorded by the network before the fast
#: path was added.
RECORDED = {
    "partition_then_heal": (3, 136, 2, 74, 0),
    "crashed_source_or_destination": (1, 26, 3, 72, 0),
    "crash_in_flight": (3, 102, 1, 33, 0),
    "installed_faults": (20, 593, 7, 229, 9),
    "disconnect_then_connect": (2, 59, 0, 0, 0),
    "lazy_default_latency_connect": (3, 111, 0, 0, 0),
}


def run_scenario(name, network_class=Network):
    scenario, default_latency = SCENARIOS[name]
    sim = Simulator()
    tracer = EventTracer(enabled=True)
    net = network_class(sim, default_latency=default_latency, tracer=tracer)
    a, b = Sink(sim, "a"), Sink(sim, "b")
    scenario(sim, net, a, b)
    sim.run()
    stats = net.stats
    links = [
        (link.src.name, link.dst.name, link.latency, link.messages, link.bytes,
         link.dropped_messages, link.dropped_bytes, link.duplicated_messages)
        for link in (net.link(a, b), net.link(b, a))
        if link is not None
    ]  # fmt: skip
    return {
        "totals": (
            stats.total_messages,
            stats.total_bytes,
            stats.dropped_messages,
            stats.dropped_bytes,
            stats.duplicated_messages,
        ),
        "duplicated_bytes": stats.duplicated_bytes,
        "by_process": dict(stats.messages_by_process),
        "in_flight": (stats.in_flight, stats.peak_in_flight),
        "links": links,
        "inboxes": (a.inbox, b.inbox),
        "spans": tracer.dump(),
        "now": sim.now,
    }


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_fast_and_checked_paths_book_alike(name):
    assert run_scenario(name) == run_scenario(name, CheckedNetwork)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_totals_are_the_recorded_ones(name):
    assert run_scenario(name)["totals"] == RECORDED[name]


def test_the_fault_free_case_takes_the_fast_path(monkeypatch):
    sim = Simulator()
    net = Network(sim)
    a, b = Sink(sim, "a"), Sink(sim, "b")
    net.connect(a, b)
    checked = []
    monkeypatch.setattr(net, "_send_checked", lambda *args: checked.append(args))
    net.send(a, b, "x")
    assert checked == []
    net.partition(b, Sink(sim, "c"))  # any partition, even elsewhere
    net.send(a, b, "y")
    assert len(checked) == 1
