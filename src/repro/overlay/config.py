"""The one description of how a broker behaves.

:class:`BrokerConfig` is built once — by
:class:`~repro.core.engine.MultiStageEventSystem` from its keyword
arguments — and handed as one object to
:func:`~repro.overlay.hierarchy.build_hierarchy`, every
:class:`~repro.overlay.node.BrokerNode`, and (pickled across the spawn
boundary) every multiprocess worker.  Each option is documented here and
nowhere else.
"""

from dataclasses import dataclass
from typing import Optional

from repro.core.subscription import DEFAULT_EXPIRY_FACTOR
from repro.filters.engine import DEFAULT_ENGINE, engine_class
from repro.flow import FlowConfig
from repro.log.config import LogConfig


@dataclass(frozen=True)
class BrokerConfig:
    """Behaviour switches shared by every broker of one system.

    Frozen and plain-picklable.  Validation happens here, so a bad value
    raises the same ``ValueError`` on every runtime before any broker —
    or worker process — exists.
    """

    #: Lease period (§4.3): filters are renewed at the parent every
    #: half-TTL and purged after ``expiry_factor`` silent TTLs.
    ttl: float = 60.0
    #: Matching engine, a key of :func:`~repro.filters.engine.
    #: engine_classes`: ``"compiled"`` (bitmap engine, the measured
    #: default), ``"index"`` (counting index) or ``"table"`` (the naive
    #: Figure-6 table, the test oracle).
    engine: str = DEFAULT_ENGINE
    #: HANDLE-WILDCARD-SUBS (§4.4) on; off is the ablation baseline.
    wildcard_routing: bool = True
    #: Match against a table compacted with covering merges (the
    #: g1-covers-f1,f2 collapse of §4; ablation toggle).
    compact: bool = False
    #: Memoize routing decisions per node (:class:`~repro.filters.engine.
    #: CachedMatchEngine`).  Off: on the compiled engine a hit costs what
    #: the match it saves costs and a miss costs both (DESIGN §12); the
    #: ``"index"`` ablation is where it still pays.
    cache: bool = False
    #: Covering-based subscription aggregation on the uplinks (§4,
    #: Definition 2 / Proposition 1).
    aggregate: bool = True
    #: Credit flow control, bounded queues and overload shedding.
    #: ``None``: the inbound queue is unbounded and no link carries a
    #: credit window.  Set (or ``service_rate`` set), the broker is
    #: *managed*: control messages no longer flush queued events first.
    flow: Optional[FlowConfig] = None
    #: Modelled processing capacity in events per second (``None`` =
    #: infinitely fast: the whole queue is served in one wakeup).
    service_rate: Optional[float] = None
    #: Events served per wakeup when ``service_rate`` is set.
    service_batch: int = 16
    #: Durable per-broker event log, replay and crash recovery (``None``
    #: = no log, no replay, no catch-up subscribers).
    log: Optional[LogConfig] = None
    #: Silent TTLs after which a lease is purged ("3xTTL").
    expiry_factor: float = DEFAULT_EXPIRY_FACTOR

    def __post_init__(self) -> None:
        # ``not x > 0`` rather than ``x <= 0``: NaN fails every comparison;
        # a count is an int, not a bool.
        if not self.ttl > 0:
            raise ValueError(f"TTL must be positive, got {self.ttl}")
        if not self.expiry_factor >= 1:
            raise ValueError(
                f"expiry factor must be >= 1, got {self.expiry_factor}"
            )
        engine_class(self.engine)  # raises for a name the map lacks
        if self.service_rate is not None and not self.service_rate > 0:
            raise ValueError(
                f"service_rate must be positive, got {self.service_rate}"
            )
        batch = self.service_batch
        if isinstance(batch, bool) or not isinstance(batch, int) or batch < 1:
            raise ValueError(f"service_batch must be >= 1 (an int), got {batch!r}")

    @property
    def managed(self) -> bool:
        """Whether events wait for the service loop even when a control
        message arrives (a credit-paced or finite-speed broker cannot
        catch up instantly)."""
        return self.flow is not None or self.service_rate is not None
