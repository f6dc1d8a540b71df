#!/usr/bin/env python
"""Brokers as real OS processes, crashes as real SIGKILLs (DESIGN §14).

``runtime="asyncio"`` already put the overlay on real sockets, but every
broker still lived on the driver's event loop — a "crash" left all its
Python objects conveniently intact.  ``runtime="multiprocess"`` removes
the convenience: each broker is its own spawned process with its own
asyncio loop and data server, and ``system.kill`` delivers an actual
``SIGKILL`` — no destructors, no flushes, no goodbye frames.

This example:

- builds a 3-broker hierarchy, one OS process per broker (watch the
  pids), with the driver hosting only the publisher and subscriber;
- publishes quotes and shows them routed across process boundaries
  using the asyncio backend's length-prefixed frame format unchanged;
- SIGKILLs the subscriber's home broker mid-run;
- restores it: a *fresh process* recovers purely from the on-disk
  event log and the §4.3 refresh-or-restore lease renewals, and
  delivery resumes.

Run:  python examples/multiprocess_brokers.py
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
        runtime="multiprocess",
        log=LogConfig(directory=segments, segment_size=4),
    )
    system.register_type(Quote)
    system.advertise("Quote", schema=("class", "symbol", "price"))

    print(f"driver pid {os.getpid()}; broker worker processes:")
    for name, snapshot in sorted(system.sim.poll_workers().items()):
        print(f"  {name:6s} pid {snapshot.get('pid')}")

    publisher = system.create_publisher("feed")
    subscriber = system.create_subscriber("alice")
    received = []
    system.subscribe(
        subscriber,
        'class = "Quote" and price < 100.0',
        handler=lambda event, meta, sub: received.append(event.get_price()),
    )
    assert system.run_until(lambda: subscriber._homes(), timeout=20.0)
    system.start_maintenance()

    for i in range(5):
        publisher.publish(Quote("ACME", float(i)))
    assert system.run_until(lambda: len(received) >= 5, timeout=15.0)
    print(f"delivered across processes: {sorted(received)}")

    home = subscriber._homes()[0]
    old_pid = system.sim.worker(home.name).process.pid
    print(f"SIGKILL {home.name} (pid {old_pid}) ...")
    system.kill(home)
    assert not system.sim.worker(home.name).process.is_alive()

    system.restore(home)
    new_pid = system.sim.worker(home.name).process.pid
    print(f"restored {home.name} as fresh process (pid {new_pid})")
    assert new_pid != old_pid
    assert system.run_until(
        lambda: home.stat("alive") and (home.stat("table_size") or 0) > 0,
        timeout=15.0,
    ), "renewals never rebuilt the restarted broker's table"

    publisher.publish(Quote("ACME", 99.0))
    assert system.run_until(lambda: 99.0 in received, timeout=15.0), (
        "no delivery through the restarted broker"
    )
    print(f"delivery resumed after recovery: {sorted(received)}")

    system.stop_maintenance()
    system.close()
    print("ok")


if __name__ == "__main__":
    main()
