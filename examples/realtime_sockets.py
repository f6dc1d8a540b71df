#!/usr/bin/env python
"""Real sockets, same overlay: the asyncio runtime backend (DESIGN §13).

Every other example drives the overlay inside the deterministic
simulator.  This one runs the *identical* broker/subscriber code over
real localhost TCP — ``runtime="asyncio"`` swaps the ``Executor`` and
``Transport`` bindings and nothing else:

- a publisher feeds a 2-level broker hierarchy over length-prefixed
  binary frames on real sockets;
- every broker persists its event log to segment files on disk;
- the subscriber's home broker is killed mid-run (socket torn down,
  soft state and in-memory log gone);
- on restart the broker reloads its log from the on-disk segments,
  lease renewals rebuild its subscription table, and delivery resumes.

Run:  python examples/realtime_sockets.py
"""

import os
import tempfile

from repro import MultiStageEventSystem
from repro.log.config import LogConfig


class Quote:
    """A stock quote event."""

    def __init__(self, symbol: str, price: float):
        self._symbol = symbol
        self._price = price

    def get_symbol(self) -> str:
        return self._symbol

    def get_price(self) -> float:
        return self._price


def main() -> None:
    segments = tempfile.mkdtemp(prefix="repro-segments-")
    system = MultiStageEventSystem(
        stage_sizes=(2, 1),
        seed=1,
        ttl=2.0,  # short leases so recovery is quick in real time
        runtime="asyncio",
        log=LogConfig(directory=segments, segment_size=4),
    )
    system.register_type(Quote)
    system.advertise("Quote", schema=("class", "symbol", "price"))

    publisher = system.create_publisher("feed")
    subscriber = system.create_subscriber("alice")
    received = []
    system.subscribe(
        subscriber,
        'class = "Quote" and price < 100.0',
        handler=lambda event, meta, sub: received.append(event.get_price()),
    )
    system.run_until(lambda: subscriber._homes(), timeout=10.0)
    system.start_maintenance()

    print("== phase 1: publish over real TCP ==")
    for i in range(5):
        publisher.publish(Quote("ACME", float(i)))
    system.run_until(lambda: len(received) >= 5, timeout=10.0)
    print(f"delivered: {received}")
    print(f"on-disk segments: {sorted(os.listdir(segments))}")

    home = subscriber._homes()[0]
    endpoint = system.network.endpoint(home)
    print(f"\n== phase 2: kill broker {home.name} (port {endpoint.port}) ==")
    system.kill(home)
    system.run_until(lambda: home.crashed, timeout=5.0)
    print(f"endpoint state: {endpoint.state}; in-memory log: {home.log}")

    print(f"\n== phase 3: restart {home.name}, recover from disk ==")
    system.restore(home)
    system.run_until(lambda: not home.crashed and home.log is not None, timeout=10.0)
    print(
        f"endpoint state: {endpoint.state} (same port: {endpoint.port}); "
        f"log records recovered from disk: {len(home.log)}"
    )
    system.run_until(lambda: len(home.table) > 0, timeout=10.0)
    print("subscription table rebuilt by lease renewal")

    publisher.publish(Quote("ACME", 99.0))
    system.run_until(lambda: 99.0 in received, timeout=10.0)
    print(f"post-restart delivery works: {received}")
    print(f"\nendpoint FSM history: {endpoint.history}")

    system.stop_maintenance()
    system.close()


if __name__ == "__main__":
    main()
