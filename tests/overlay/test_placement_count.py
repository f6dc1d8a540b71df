"""Figure-5b placement is sub-linear in the forms a broker holds — as a
count of covering verifications per ``SubscriptionRequest``, not as a
timing.

A root like ``sim_match_10k``'s (stage 2, two leaf brokers below) is
loaded with 40, 400 and 4 000 routed forms of that workload's shape and
then asked to place subscriptions of its shape (``region = · ∧ sector =
· ∧ symbol = · ∧ price < ·``).  The covering index verifies only the
forms that every indexed value of the request admits — the
intersection of its per-attribute postings, here the one form that
covers — where the table scan of ``placement_reference.py`` asks
``covers`` of every stored form.  A verification is counted where it
happens, in ``Filter.covers_grouped``: the index's, against the request
grouped once, and every ``Filter.covers``, which goes through it.
"""

import random

import pytest

from repro.core.advertisement import Advertisement
from repro.core.stages import AttributeStageAssociation
from repro.filters.constraints import AttributeConstraint
from repro.filters.filter import Filter
from repro.filters.operators import EQ, LT
from repro.overlay.messages import Advertise, ReqInsert, SubscriptionRequest
from repro.overlay.node import BrokerNode
from repro.sim.kernel import Process, Simulator

from tests.overlay.placement_reference import strongest_covering_child
from tests.overlay.test_stage0_differential import _Net

SCHEMA = ("region", "sector", "symbol", "price")
REGIONS = 4
REQUESTS = 50
#: Verifications one request may cost at any table size: the one form
#: under the request's region and sector (and symbol) that the postings
#: intersect to, and no fold comparison, since one form survives.
BOUND = 1


def _equalities(region, sector, symbol=None):
    values = (("region", region), ("sector", sector), ("symbol", symbol))
    return [
        AttributeConstraint(name, EQ, f"{name}-{value}")
        for name, value in values
        if value is not None
    ]


def _population(shape, size, rng):
    """``size`` distinct forms and the ``REQUESTS`` subscriptions to place.

    ``region-sector``: the full cross product of 4 regions and ``size /
    4`` sectors — what the root holds when stage 2 filters on those two.
    ``region-sector-symbol``: distinct draws over 4 x 10 x 5 000, the
    workload's own domains, had stage 2 kept the symbol too.
    """
    if shape == "region-sector":
        keys = [(r, s, None) for s in range(size // REGIONS) for r in range(REGIONS)]
    else:
        keys = list(
            {(rng.randrange(REGIONS), rng.randrange(10), rng.randrange(5000)): None
             for _ in range(2 * size)}
        )[:size]
    assert len(keys) == size
    requests = []
    for _ in range(REQUESTS):
        region, sector, symbol = (
            rng.choice(keys) if keys else (rng.randrange(REGIONS), rng.randrange(10), None)
        )
        symbol = rng.randrange(5000) if symbol is None else symbol
        bound = AttributeConstraint("price", LT, round(rng.uniform(10.0, 1000.0), 2))
        requests.append(Filter(_equalities(region, sector, symbol) + [bound]))
    return [Filter(_equalities(*key)) for key in keys], requests


def _count_covers(monkeypatch):
    """Count every covering verification: the index's, against the
    request grouped once (``Filter.covers_grouped``), and every
    ``Filter.covers`` call, which goes through it."""
    calls = []
    covers_grouped = Filter.covers_grouped
    monkeypatch.setattr(
        Filter,
        "covers_grouped",
        lambda self, by_attribute: calls.append(1) or covers_grouped(self, by_attribute),
    )
    return calls


def loaded_root(shape, size, rng):
    """A stage-2 root over two leaves, holding ``size`` routed forms;
    with its network and the requests to place (``bench_covering.py``
    times the same set-up)."""
    sim = Simulator()
    net = _Net()
    root = BrokerNode(sim, net, "root", 2)
    leaves = [BrokerNode(sim, net, f"leaf-{i}", 1) for i in range(2)]
    for leaf in leaves:
        root.attach_child(leaf)
    association = AttributeStageAssociation.uniform(SCHEMA, stages=3)
    root.receive(Advertise(Advertisement("Quote", association)), root)
    forms, requests = _population(shape, size, rng)
    for position, form in enumerate(forms):
        leaf = leaves[position % 2]
        root.receive(ReqInsert(form, "Quote", leaf), leaf)
    assert len(root.table) == len(root.placement_index) == size
    del net.sent[:]
    return root, net, requests


SHAPES = ("region-sector", "region-sector-symbol")
SIZES = (40, 400, 4000)


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("size", SIZES)
def test_covers_calls_per_subscription_request(monkeypatch, shape, size):
    root, net, requests = loaded_root(shape, size, random.Random(size))
    subscriber = Process(root.sim, "subscriber")
    calls = _count_covers(monkeypatch)
    index = root.placement_index
    worst = worst_index = 0
    for sid, request in enumerate(requests, start=1):
        before, checks_before = len(calls), index.covers_checks
        root.receive(SubscriptionRequest(request, "Quote", subscriber, sid), subscriber)
        worst = max(worst, len(calls) - before)
        worst_index = max(worst_index, index.covers_checks - checks_before)
    assert 1 <= worst_index <= worst <= BOUND

    before = len(calls)
    expected = [strongest_covering_child(root, request) for request in requests]
    assert len(calls) - before == size * REQUESTS  # the scan's n, per request
    # Every request was placed (answered with a JoinAt), at the child
    # the scan picks.
    assert all(child is not None for child in expected)
    assert [message.node for _, _, message in net.sent] == expected
