"""Sender-side credit window for one data link: the spend/grant
bookkeeping :mod:`repro.flow.link` composes into a credited hop."""


class CreditWindow:
    """Spend/grant bookkeeping for the sending side of one link."""

    __slots__ = ("capacity", "available", "stalls", "surplus")

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"credit window capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.available = capacity
        #: Times ``take`` failed (the sender had to queue locally).
        self.stalls = 0
        #: Credits granted past capacity and dropped by the cap.
        self.surplus = 0

    def take(self, n: int = 1) -> bool:
        """Spend ``n`` credits; False (and no change) when short."""
        if self.available >= n:
            self.available -= n
            return True
        self.stalls += 1
        return False

    def grant(self, n: int) -> None:
        """Receiver granted ``n`` credits back, capped at capacity — a
        safety bound that a correct peer never reaches, so what it drops
        is kept in ``surplus`` for the invariants to report."""
        if n < 0:
            raise ValueError(f"cannot grant negative credits ({n})")
        self.surplus += max(0, self.available + n - self.capacity)
        self.available = min(self.capacity, self.available + n)

    def reset(self) -> None:
        """Back to a full window (peer lost its state: fresh incarnation)."""
        self.available = self.capacity

    @property
    def exhausted(self) -> bool:
        return self.available == 0

    def __repr__(self) -> str:
        return f"CreditWindow({self.available}/{self.capacity})"
