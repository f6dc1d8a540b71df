"""What one subscription leaves behind in a ``sim`` system: a count of
the objects the garbage collector tracks, pinned.

Every full collection walks every tracked object, and in a
``sim_match_10k`` build (10 000 subscriber runtimes of one subscription
each) the collections were half the set-up time.  So the count is taken
the way that build makes subscriptions — one runtime per subscription,
``stage_sizes=(2, 1)``, joined one at a time — at two sizes, and the
slope between them is what one subscription costs: the hierarchy, the
advertisement and the first forms at the root cancel out.  The filters
are made before the first count, as the benchmark holds its inputs
before it builds, and every subscription shares one handler.
"""

import gc
import random
import sys

from repro.core.engine import MultiStageEventSystem
from repro.workloads.subscriptions import SubscriptionGenerator

SCHEMA = ("class", "region", "sector", "symbol", "price")
SIZES = (200, 400)

#: Tracked objects per subscription.  Held by the subscriber side: the
#: runtime, its counters, its subscription and the state holding it,
#: the standardized filter and its constraint tuple, the ``id -> state``
#: and ``home -> _Home`` maps and the ``_Home`` (a list); by the home
#: broker: the stored (weakened) filter and its tuple, the lease key;
#: by the network: four links (to and from the root and the home).
#: Made on first use, and so not here: the reliable links and their
#: retransmit hook, the timer set, the latency list, the group dedup,
#: the routing-cache stats and the ``class = C`` constraint (one per
#: advertised class).
PER_SUBSCRIPTION = 17
#: Before Python 3.11 an instance's attributes live in a dict of their
#: own, tracked while it holds a tracked value: the runtime's, the
#: subscription's and the state's.
INSTANCE_DICTS = 3 if sys.version_info < (3, 11) else 0


def _tracked_after_build(filters):
    gc.collect()
    before = len(gc.get_objects())
    system = MultiStageEventSystem(stage_sizes=(2, 1), seed=0)
    system.advertise("Quote", schema=SCHEMA)
    system.drain()
    for index, filter_ in enumerate(filters):
        subscriber = system.create_subscriber(f"sub-{index}")
        system.subscribe(subscriber, filter_, event_class="Quote", handler=_handler)
        system.drain()
    assert all(subscriber.all_joined() for subscriber in system.subscribers)
    gc.collect()
    return len(gc.get_objects()) - before


def _handler(event, metadata, subscription):
    pass


def test_tracked_objects_per_subscription():
    generator = SubscriptionGenerator((("region", 4), ("sector", 10), ("symbol", 5000)))
    rng = random.Random(0)
    small, large = SIZES
    filters = [generator.random_filter(rng) for _ in range(large)]
    grown = _tracked_after_build(filters) - _tracked_after_build(filters[:small])
    # A handful of objects (dict resizes, the root's last forms) do not
    # scale with the subscriptions: the slope is within 0.1 of a whole.
    assert round(grown / (large - small)) <= PER_SUBSCRIPTION + INSTANCE_DICTS
