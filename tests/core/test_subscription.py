"""Unit tests for subscriptions and TTL lease tables (§4.3)."""

import pytest

from repro.core.subscription import LeaseTable, Subscription
from repro.events.closures import FilterClosure
from repro.filters.parser import parse_filter

F = parse_filter('symbol = "Foo" and price < 10')


class TestSubscription:
    def test_ids_are_unique(self):
        a = Subscription(F, "Stock")
        b = Subscription(F, "Stock")
        assert a.subscription_id != b.subscription_id

    def test_matches_exactly_plain_filter(self):
        sub = Subscription(F, "Stock")
        assert sub.matches_exactly({"symbol": "Foo", "price": 5})
        assert not sub.matches_exactly({"symbol": "Foo", "price": 50})

    def test_matches_exactly_with_closure(self):
        closure = FilterClosure(F, residual=lambda e: e["price"] > 3)
        sub = Subscription(F, "Stock", closure)
        assert sub.matches_exactly({"symbol": "Foo", "price": 5})
        assert not sub.matches_exactly({"symbol": "Foo", "price": 2})

    def test_matches_exactly_with_separate_metadata(self):
        class Typed:
            pass

        closure = FilterClosure(F, residual=lambda e: isinstance(e, Typed))
        sub = Subscription(F, "Stock", closure)
        assert sub.matches_exactly(Typed(), metadata={"symbol": "Foo", "price": 5})

    def test_hash_by_id(self):
        sub = Subscription(F, "Stock")
        assert len({sub, sub}) == 1

    def test_repr(self):
        assert "Stock" in repr(Subscription(F, "Stock"))


class TestLeaseTable:
    def test_validation(self):
        with pytest.raises(ValueError):
            LeaseTable(ttl=0)
        with pytest.raises(ValueError):
            LeaseTable(ttl=10, expiry_factor=0.5)
        # NaN passed ``<= 0`` / ``< 1``: a NaN expiry factor left every
        # lease dead yet none expired.
        with pytest.raises(ValueError):
            LeaseTable(ttl=float("nan"))
        with pytest.raises(ValueError):
            LeaseTable(ttl=10, expiry_factor=float("nan"))

    def test_touch_makes_pair_live(self):
        leases = LeaseTable(ttl=10)
        leases.touch(F, "sub", now=0.0)
        assert leases.is_live(F, "sub", now=5.0)
        assert (F, "sub") in leases
        assert len(leases) == 1

    def test_expiry_at_three_ttl(self):
        leases = LeaseTable(ttl=10)
        leases.touch(F, "sub", now=0.0)
        assert leases.is_live(F, "sub", now=29.9)
        assert not leases.is_live(F, "sub", now=30.0)
        assert leases.expired(now=30.0) == [(F, "sub")]

    def test_renewal_extends_the_lease(self):
        leases = LeaseTable(ttl=10)
        leases.touch(F, "sub", now=0.0)
        leases.touch(F, "sub", now=25.0)
        assert leases.is_live(F, "sub", now=50.0)
        assert leases.expired(now=50.0) == []

    def test_touch_all_renews_by_destination(self):
        other = parse_filter('symbol = "Bar"')
        leases = LeaseTable(ttl=10)
        leases.touch(F, "a", now=0.0)
        leases.touch(other, "a", now=0.0)
        leases.touch(F, "b", now=0.0)
        assert leases.touch_all("a", now=25.0) == 2
        expired = leases.expired(now=40.0)
        assert expired == [(F, "b")]

    def test_forget(self):
        leases = LeaseTable(ttl=10)
        leases.touch(F, "sub", now=0.0)
        leases.forget(F, "sub")
        assert not leases.is_live(F, "sub", now=1.0)
        assert len(leases) == 0

    def test_forget_unknown_is_noop(self):
        LeaseTable(ttl=10).forget(F, "ghost")

    def test_unknown_pair_is_not_live(self):
        assert not LeaseTable(ttl=10).is_live(F, "sub", now=0.0)

    def test_custom_expiry_factor(self):
        leases = LeaseTable(ttl=10, expiry_factor=1.0)
        leases.touch(F, "sub", now=0.0)
        assert not leases.is_live(F, "sub", now=10.0)

    def test_pairs_listing(self):
        leases = LeaseTable(ttl=10)
        leases.touch(F, "a", now=0.0)
        assert leases.pairs() == [(F, "a")]
