"""Runtime invariant checks over a built hierarchy.

The central safety property of the multi-stage scheme (and the one PR 2's
aggregation made fragile under message loss) is the *covering invariant*:
for every broker child, the parent's filter table routed *to that child*
must cover the stage-``s+1`` weakened form of every filter the child
holds under a live lease.  While it holds, an event matching any live
downstream subscription is forwarded at every stage — delivery loss can
only come from the leaves outward, never from a hole in the routing
tables.

The checker reads live state only (lease-expired pairs are the soft-state
decay working as designed, not a violation) and skips crashed brokers
(a crashed child neither holds state nor receives events).

A second, local invariant rides along: a broker that places
subscriptions (stage > 1) answers Figure 5b from a covering index over
its table's filters, which must list exactly those filters in the
table's order (:func:`placement_violations`) — otherwise a subscription
is sent toward a child chosen from filters the table no longer holds.

A third is about the crash itself: a broker that just crashed holds
what a newly constructed one holds and nothing more
(:func:`soft_state_violations`), apart from what DESIGN §8 lists as
surviving.

A fourth is credit conservation on the credited links (``flow.link``):
no window outside ``0..capacity``, no link that parks events while it
holds credits, no receiver ahead of what its sender numbered — and, at
quiescence, every window full again (:func:`credit_violations`).
"""

from dataclasses import dataclass, replace
from typing import Any, List, Tuple

from repro.core.weakening import weaken_filter
from repro.filters.filter import Filter
from repro.overlay.hierarchy import Hierarchy
from repro.overlay.node import BrokerNode


@dataclass(frozen=True)
class CoveringViolation:
    """One hole: ``child`` holds ``filter`` live, but no filter at
    ``parent`` routed to ``child`` covers its weakened ``form``."""

    parent: BrokerNode
    child: BrokerNode
    filter: Filter
    form: Filter

    def __str__(self) -> str:
        return (
            f"{self.parent.name} does not cover {self.form} "
            f"(from {self.filter} at {self.child.name})"
        )


def covering_violations(
    hierarchy: Hierarchy, now: float
) -> List[CoveringViolation]:
    """Check the covering invariant at every parent/child broker edge.

    ``now`` is the simulated time used to decide lease liveness.  Returns
    every hole found (empty list = invariant holds system-wide); chaos
    tests poll this after a fault schedule to measure convergence.
    """
    violations: List[CoveringViolation] = []
    for child in hierarchy.nodes():
        parent = child.parent
        if parent is None or child.crashed or parent.crashed:
            continue
        # Filters the parent currently routes toward this child.
        routed = [
            stored
            for stored, ids in parent.table.entries()
            if any(destination is child for destination in ids)
        ]
        for filter_, destination in child.leases.pairs():
            if not child.leases.is_live(filter_, destination, now):
                continue
            event_class = child._filter_class.get(filter_)
            if event_class is None:
                continue
            advertisement = child.advertisements.get(event_class)
            if advertisement is None:
                continue
            form = weaken_filter(
                filter_, advertisement.association, child.stage + 1
            )
            if not any(stored.covers(form) for stored in routed):
                violations.append(
                    CoveringViolation(parent, child, filter_, form)
                )
    return violations


@dataclass(frozen=True)
class PlacementViolation:
    """``node``'s placement index and routing table disagree: ``indexed``
    and ``stored`` are their filters, each in its own order."""

    node: BrokerNode
    indexed: Tuple[Filter, ...]
    stored: Tuple[Filter, ...]

    def __str__(self) -> str:
        return (
            f"{self.node.name} places from an index of {len(self.indexed)} "
            f"filters that is not its table of {len(self.stored)}"
        )


def placement_violations(hierarchy: Hierarchy) -> List[PlacementViolation]:
    """Every live placing broker whose covering index is not its table.

    Equal *lists*, not sets: Figure 5b keeps the first of several
    equally strong covers, so the index has to enumerate filters in
    ``table.entries()`` order for the chosen child to be the one a scan
    of the table would choose (DESIGN §5).
    """
    violations: List[PlacementViolation] = []
    for node in hierarchy.nodes():
        if node.crashed or node.placement_index is None:
            continue
        indexed = tuple(node.placement_index.filters())
        stored = tuple(node.table.filters())
        if indexed != stored:
            violations.append(PlacementViolation(node, indexed, stored))
    return violations


#: What ``BrokerNode.crash()`` keeps (DESIGN §8 has the reason for each)
#: besides identity, wiring and configuration, which are not state.  The
#: components and the detector are kept as objects and reset inside.
_KEPT = frozenset(
    "sim name network stage config ttl expiry_factor offline_buffer_limit "
    "flow log_config parent broker_children rng tracer crashed incarnation "
    "advertisements counters log maintaining "
    "links uplink flow_host _replayer overload_detector".split()
)


def _held(value: Any) -> Any:
    """A field reduced to what a crash empties: a size, or the value."""
    return len(value) if hasattr(value, "__len__") else value


def soft_state_violations(node: BrokerNode) -> List[str]:
    """What a crashed ``node`` still holds that the crash should have lost.

    Field by field against a just-constructed broker of the same name,
    stage and configuration, for the node itself and for its uplink and
    flow host.  Any attribute not in ``_KEPT`` counts as soft, so a field
    added to the class later is checked without being listed here.
    """
    fresh = BrokerNode(
        node.sim, node.network, node.name, node.stage, replace(node.config, log=None)
    )
    held = {}
    for label, part, new, kept in (
        ("", node, fresh, _KEPT),
        ("uplink.", node.uplink, fresh.uplink, {"node"}),
        # The derived-event numbering survives on purpose.
        ("flow_host.", node.flow_host, fresh.flow_host, {"node", "seqs"}),
    ):
        for field in sorted(vars(part).keys() - kept):
            size, empty = _held(vars(part)[field]), _held(vars(new).get(field))
            held[f"{label}{field} holds {size!r}"] = size != empty
    for gauge in ("filters_held", "propagated_filters", "flows_installed"):
        held[f"counters.{gauge} is not 0"] = getattr(node.counters, gauge)
    detector, replayer = node.overload_detector, node._replayer
    held["un-acked frames on its links"] = not node.links.idle
    held[f"overload detector remembers {detector!r}"] = detector is not None and (
        detector.overloaded or detector.ewma
    )
    held["replay sessions open"] = replayer is not None and replayer.active
    return [f"{node.name}: {what}" for what, wrong in held.items() if wrong]


def credit_violations(system: Any, quiescent: bool = False) -> List[str]:
    """Credit conservation over every credited link of ``system``: the
    publishers' links to the root and every broker's links downstream.

    At any instant: a window holds ``0..capacity`` credits and was never
    granted past its capacity (a grant pays only for events its window
    spent); a link that parks events holds no credit (head-of-line
    order: a grant releases parked events before anything newer can
    spend it); and a receiver has heard no frame its sender did not
    send — no later epoch, nor in the same epoch a number past what the
    sender has numbered.  With ``quiescent`` — after a ``drain()``, no
    loss window open — nothing is in flight either way, so every credit
    is home: each window full, nothing parked, no replay session open.
    """
    senders = {}
    for publisher in system.publishers:
        if publisher.link is not None:
            senders[publisher.name, publisher.root.name] = publisher.link
    nodes = system.hierarchy.nodes()
    for node in nodes:
        for peer, link in node._downlinks.items():
            senders[node.name, peer] = link
    found = []
    for (source, peer), link in senders.items():
        window, label = link.window, f"{source}->{peer}"
        if not 0 <= window.available <= window.capacity:
            found.append(f"{label}: {window!r} is outside its capacity")
        if window.surplus:
            found.append(f"{label}: granted {window.surplus} credits past capacity")
        if link.blocked and window.available:
            found.append(f"{label}: parks events while it holds credits ({link!r})")
        if quiescent and (link.blocked or window.available != window.capacity):
            found.append(f"{label}: credits not home at quiescence ({link!r})")
    for node in nodes:
        if node._receiver is None:
            continue
        for source, heard in node._receiver.expected.items():
            link = senders.get((source, node.name))
            if link is not None and heard > (link.epoch, link.next_seq):
                found.append(
                    f"{source}->{node.name}: receiver expects frame {heard[1]} "
                    f"of epoch {heard[0]}, sender is at {link!r}"
                )
        if quiescent and node._replayer is not None and node._replayer.active:
            found.append(f"{node.name}: replay sessions open at quiescence")
    return found
