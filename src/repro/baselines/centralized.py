"""The centralized architecture (§2.1, first bullet; Elvin-style).

One server holds *every* subscription and filters *every* event: its
Load Complexity per time unit equals ``total events x total
subscriptions``, i.e. ``RLC = 1`` — the yardstick the paper's RLC metric
normalizes against.  Subscribers receive only events their filters
matched, so edge matching rates are 1 by construction (the server did
the perfect filtering for them).
"""

from typing import Any, Callable, Optional

from repro.baselines.common import (
    BaselineSystem,
    EdgeSubscriber,
    FilterLike,
    Handler,
)
from repro.core.subscription import Subscription
from repro.filters.engine import DEFAULT_ENGINE, MatchEngine, make_engine
from repro.metrics.counters import NodeCounters
from repro.overlay.messages import Publish
from repro.sim.kernel import Process, Simulator
from repro.sim.network import Network


class CentralServer(Process):
    """The single filtering server: all subscriptions, all events."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        name: str = "central-server",
        engine: str = DEFAULT_ENGINE,
    ):
        super().__init__(sim, name)
        self.network = network
        # No routing cache: a server holding every subscription is the
        # large-table, low-hit-rate regime where it only costs.
        self.table: MatchEngine = make_engine(engine)
        self.counters = NodeCounters()
        self._subscription_count = 0

    def insert(self, subscription: Subscription, subscriber: EdgeSubscriber) -> None:
        self.table.insert(subscription.filter, subscriber)
        # The paper's centralized yardstick holds the *complete set of
        # subscriptions* — no weakening-based collapse — so the LC filter
        # count is the subscription count, not the deduplicated table size.
        # That is exactly what makes its RLC equal 1.
        self._subscription_count += 1
        self.counters.set_filters_held(self._subscription_count)

    def receive(self, message: Any, sender: Process) -> None:
        if not isinstance(message, Publish):
            raise TypeError(f"{self.name}: unexpected message {message!r}")
        matches = self.table.match(message.envelope.metadata)
        destinations = []
        seen = set()
        for _, ids in matches:
            for destination in ids:
                if id(destination) not in seen:
                    seen.add(id(destination))
                    destinations.append(destination)
        self.counters.on_event(
            matched=bool(matches),
            forwarded_to=len(destinations),
            evaluations=self._subscription_count,
        )
        for destination in destinations:
            self.network.send(self, destination, message)


class CentralizedSystem(BaselineSystem):
    """Facade: a single server between publishers and subscribers."""

    def __init__(
        self, seed: int = 0, link_latency: float = 0.001, engine: str = DEFAULT_ENGINE
    ):
        super().__init__(seed=seed, link_latency=link_latency)
        self.server = CentralServer(self.sim, self.network, engine=engine)

    def _entry_point(self) -> Process:
        return self.server

    def subscribe(
        self,
        subscriber: EdgeSubscriber,
        filter: FilterLike = None,
        event_class: str = "",
        handler: Optional[Handler] = None,
        residual: Optional[Callable[[Any], bool]] = None,
    ) -> Subscription:
        subscription = self._make_subscription(filter, event_class, residual)
        subscriber.add_subscription(subscription, handler)
        self.server.insert(subscription, subscriber)
        return subscription

    def server_rlc(self) -> float:
        """The server's RLC — 1.0 whenever it saw every event."""
        from repro.metrics.load import relative_load_complexity

        return relative_load_complexity(
            self.server.counters,
            total_events=self.total_events_published(),
            total_subscriptions=self.total_subscriptions(),
        )
