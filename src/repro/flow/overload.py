"""Per-broker overload detection: queue-depth EWMA with hysteresis.

A broker cannot tell overload from a transient burst by looking at one
queue-depth sample; the detector smooths the depth with an exponentially
weighted moving average and runs a two-state machine over it:

    NORMAL --[ewma >= high * capacity]--> OVERLOADED
    OVERLOADED --[ewma <= low * capacity]--> NORMAL

The high/low watermarks (``low < high``) give hysteresis so the state
does not flap at the threshold.  While OVERLOADED the broker switches to
shedding mode (its effective inbound capacity shrinks to
:data:`OVERLOAD_CAPACITY_FACTOR` of ``queue_capacity``), which drains the
backlog faster and keeps admitted-event latency bounded.

Observation rides the existing :class:`~repro.obs.sampling.StageSampler`
tick — no extra timers — via the broker's public ``queue_depth()``
accessor; ticks land at fixed simulated times, so detector transitions
are as deterministic as everything else.
"""

from typing import Callable, Optional

NORMAL = "normal"
OVERLOADED = "overloaded"

#: Effective inbound capacity fraction while OVERLOADED (shedding mode:
#: admit less, recover faster).
OVERLOAD_CAPACITY_FACTOR = 0.5

#: ``on_transition(new_state, simulated_time, ewma)``.
TransitionHook = Callable[[str, float, float], None]


class OverloadDetector:
    """EWMA-of-queue-depth state machine for one broker."""

    __slots__ = (
        "capacity",
        "alpha",
        "high",
        "low",
        "state",
        "ewma",
        "transitions",
        "on_transition",
    )

    def __init__(
        self,
        capacity: int,
        alpha: float = 0.4,
        high: float = 0.75,
        low: float = 0.25,
        on_transition: Optional[TransitionHook] = None,
    ):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        if not 0.0 <= low < high:
            raise ValueError(f"need 0 <= low < high, got low={low} high={high}")
        self.capacity = capacity
        self.alpha = alpha
        self.high = high * capacity
        self.low = low * capacity
        self.state = NORMAL
        self.ewma = 0.0
        self.transitions = 0
        self.on_transition = on_transition

    def observe(self, now: float, depth: int) -> Optional[str]:
        """Feed one queue-depth sample; returns the new state on a
        transition, ``None`` otherwise."""
        self.ewma = self.alpha * depth + (1.0 - self.alpha) * self.ewma
        if self.state == NORMAL and self.ewma >= self.high:
            return self._transition(OVERLOADED, now)
        if self.state == OVERLOADED and self.ewma <= self.low:
            return self._transition(NORMAL, now)
        return None

    def _transition(self, state: str, now: float) -> str:
        self.state = state
        self.transitions += 1
        if self.on_transition is not None:
            self.on_transition(state, now, self.ewma)
        return state

    @property
    def overloaded(self) -> bool:
        return self.state == OVERLOADED

    def reset(self) -> None:
        """Forget history (broker crash wipes soft state)."""
        self.state = NORMAL
        self.ewma = 0.0

    def __repr__(self) -> str:
        return f"OverloadDetector({self.state}, ewma={self.ewma:.2f})"
