"""Flow control, backpressure, and overload protection.

The paper's scalability argument (§5) bounds per-broker *filtering* cost;
this package bounds the *arrival* side, which the paper leaves implicit:
without it every queue in the overlay is unbounded, and a fast publisher
or a slow stage-2 broker grows memory without limit while the simulator
happily models an OOM as "fine".  Gryphon frames brokering as
information *flow* for exactly this reason — flow must be controlled end
to end, not just filtered.

Four small, simulator-agnostic mechanisms compose into the overlay's
overload story (wired up in ``overlay/`` and ``obs/``):

- :class:`CreditWindow` — spend/grant bookkeeping of credit-based
  per-link flow control; with a :class:`BoundedQueue` and the epoch-
  stamped ``DataFrame`` numbering it makes the one description of a
  credited hop, :mod:`repro.flow.link`, that publishers, brokers and
  replay all use.
- :class:`BoundedQueue` — a capacity-limited queue with pluggable
  shedding policies (``drop_tail``, ``drop_oldest``,
  ``priority_by_selectivity``).  Every shed is returned to the caller,
  which counts it and emits a tracing span: loss is observable, never
  silent.
- :class:`RateLimiter` — a token bucket over *simulated* time, applied
  at publishers to cap offered load at the source.
- :class:`OverloadDetector` — a queue-depth EWMA with hysteresis,
  observed on the existing :class:`~repro.obs.sampling.StageSampler`
  tick, that flips a broker between NORMAL and OVERLOADED shedding
  modes.

:class:`FlowConfig` bundles the knobs; everything here is deterministic
(no wall clocks, no ``id()``, no hash-order iteration) so flow-controlled
runs stay byte-identical across same-seed executions.
"""

from repro.flow.config import FlowConfig
from repro.flow.credits import CreditWindow
from repro.flow.link import LinkReceiver, LinkSender
from repro.flow.overload import NORMAL, OVERLOADED, OverloadDetector
from repro.flow.ratelimit import RateLimiter
from repro.flow.shedding import POLICIES, BoundedQueue

__all__ = [
    "FlowConfig",
    "CreditWindow",
    "BoundedQueue",
    "LinkSender",
    "LinkReceiver",
    "POLICIES",
    "RateLimiter",
    "OverloadDetector",
    "NORMAL",
    "OVERLOADED",
]
