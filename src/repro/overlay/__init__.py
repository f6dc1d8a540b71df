"""The broker overlay of Section 4: an arbitrarily-deep hierarchy.

- :mod:`~repro.overlay.messages` — the protocol vocabulary (publish,
  subscription routing, filter insertion, renewals, advertisements);
- :mod:`~repro.overlay.node` — :class:`BrokerNode`, implementing the
  node side of Figure 5(b) and the forwarding loop of Figure 6;
- :mod:`~repro.overlay.subscriber` — the subscriber runtime: the join
  protocol of Figure 5(a) and perfect stage-0 filtering;
- :mod:`~repro.overlay.publisher` — the publisher runtime: advertising
  and event transformation at the publishing boundary;
- :mod:`~repro.overlay.hierarchy` — topology construction (the paper's
  1 / 10 / 100-node configuration and variants).
"""

from repro.overlay.channel import ReliableReceiver, ReliableSender
from repro.overlay.hierarchy import Hierarchy, build_hierarchy
from repro.overlay.invariants import (
    CoveringViolation,
    PlacementViolation,
    covering_violations,
    placement_violations,
)
from repro.overlay.messages import (
    AcceptedAt,
    Ack,
    Advertise,
    ChannelReset,
    JoinAt,
    Publish,
    Renewal,
    ReqInsert,
    Sequenced,
    SubscriptionRequest,
    Unsubscribe,
)
from repro.overlay.node import BrokerNode
from repro.overlay.publisher import PublisherRuntime
from repro.overlay.subscriber import SubscriberRuntime

__all__ = [
    "AcceptedAt",
    "Ack",
    "Advertise",
    "BrokerNode",
    "ChannelReset",
    "CoveringViolation",
    "Hierarchy",
    "JoinAt",
    "PlacementViolation",
    "Publish",
    "PublisherRuntime",
    "ReliableReceiver",
    "ReliableSender",
    "Renewal",
    "ReqInsert",
    "Sequenced",
    "SubscriberRuntime",
    "SubscriptionRequest",
    "Unsubscribe",
    "build_hierarchy",
    "covering_violations",
    "placement_violations",
]
