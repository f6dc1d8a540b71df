"""Configuration bundle for the flow-control subsystem."""

from dataclasses import dataclass

from repro.flow.shedding import POLICIES


@dataclass(frozen=True)
class FlowConfig:
    """Knobs for credit flow control, shedding, and overload detection.

    Passing a ``FlowConfig`` to :class:`~repro.core.engine.
    MultiStageEventSystem` (or, inside a :class:`~repro.overlay.config.
    BrokerConfig`, to brokers) turns the subsystem on.  ``None`` is the
    same broker pipeline with an unbounded inbound queue, no credit
    window on any link, and queued events flushed ahead of control
    messages (DESIGN §10).
    """

    #: Broker inbound event queue bound (events awaiting processing).
    queue_capacity: int = 128
    #: Per-downstream-link bound on events blocked waiting for credits.
    outbound_capacity: int = 64
    #: Credits a data link starts with (receiver grants them back
    #: one-for-one as it processes, so this is the max in-flight +
    #: receiver-queued events per link).
    link_window: int = 32
    #: Bound on a reliable control channel's outstanding-frame set.
    control_window: int = 64
    #: Shedding policy on queue overflow: one of
    #: ``drop_tail`` / ``drop_oldest`` / ``priority_by_selectivity``.
    policy: str = "drop_tail"
    #: Publisher-side local queue bound (events waiting for credits).
    publisher_queue_capacity: int = 256
    #: Overload detector: EWMA smoothing factor for queue depth.
    ewma_alpha: float = 0.4
    #: Enter OVERLOADED when the EWMA exceeds this fraction of
    #: ``queue_capacity``...
    overload_high: float = 0.75
    #: ...and return to NORMAL when it falls below this fraction
    #: (hysteresis: ``overload_low < overload_high``).
    overload_low: float = 0.25

    def __post_init__(self) -> None:
        # Counts are ints, not bools: a NaN bound compares false with
        # every length and an infinite one never binds.
        for name in ("queue_capacity", "outbound_capacity", "link_window",
                     "control_window", "publisher_queue_capacity"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ValueError(f"{name} must be >= 1 (an int), got {value!r}")
        if self.policy not in POLICIES:
            raise ValueError(f"unknown shedding policy {self.policy!r}; have {POLICIES}")
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ValueError(f"ewma_alpha must be in (0, 1], got {self.ewma_alpha}")
        if not 0.0 <= self.overload_low < self.overload_high:
            raise ValueError(
                "need 0 <= overload_low < overload_high, got "
                f"low={self.overload_low} high={self.overload_high}"
            )
