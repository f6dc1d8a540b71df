"""What a broker tells its parent about the filters it stores (§4).

Covering-based subscription aggregation, the Definition 2 / Proposition
1 trade: a ``req-Insert`` is suppressed when a propagated form already
covers the new one, and on the death of a cover its still-live covered
forms are re-propagated *before* it is withdrawn.

Soundness is free: a propagated cover is weaker than the forms it
suppresses, so the parent routes a superset of the needed events
(over-approximation, filtered exactly one stage below).  Completeness is
an ordering discipline: any replacement ``req-Insert`` is sent *before*
the ``Withdraw`` of the form it replaces, so at no instant does the
parent's table stop covering the union of this node's stored filters.
That discipline only survives the wire if the parent applies the two in
that order, so everything said upward — ``req-Insert``, ``Withdraw``,
``Renewal`` — rides the acked, sequence-numbered link the broker's
:class:`~repro.overlay.channel.PeerLinks` keeps to the parent.

``BrokerConfig.aggregate`` is read here and nowhere else: with it off
(EXPERIMENTS "Ablations") every announced filter's form goes up, nothing
is refcounted or withdrawn, and the parent's leases do the forgetting.
"""

from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

from repro.core.weakening import weaken_filter
from repro.filters.covering_index import CoveringIndex
from repro.filters.filter import Filter
from repro.overlay.messages import Renewal, ReqInsert, Withdraw

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.overlay.node import BrokerNode


class _UpLink:
    """Covering-aggregation state for one (node, event class) uplink.

    ``forms`` refcounts the stage-``s+1`` weakened *forms* of the filters
    stored locally (several stored filters can weaken to the same form);
    ``index`` holds the live forms for fast subsumption queries.  A live
    form is either *propagated* (sent to the parent via ``req-Insert``)
    or *suppressed* under exactly one propagated ``cover_of`` it is
    covered by; ``covered`` is the reverse map.  The propagated set is
    kept an antichain — maximal forms only — by demotion on insert and
    promotion (uncover re-propagation) on removal.

    All containers are insertion-ordered dicts, never plain sets of
    filters: iteration order feeds message emission, and ``str``-hash
    randomization must not leak into traces.
    """

    __slots__ = ("forms", "index", "propagated", "cover_of", "covered")

    def __init__(self) -> None:
        self.forms: Dict[Filter, int] = {}
        self.index = CoveringIndex()
        self.propagated: Dict[Filter, None] = {}
        self.cover_of: Dict[Filter, Filter] = {}
        self.covered: Dict[Filter, Dict[Filter, None]] = {}

    def propagated_cover(self, form: Filter) -> Optional[Filter]:
        """The first propagated form, other than ``form``, covering it."""
        for cover in self.index.covered_by(form):
            if cover != form and cover in self.propagated:
                return cover
        return None


class CoveringUplink:
    """The uplink of one broker: soft state, empty at the root.  Spans
    and counts go through ``node``, as :class:`~repro.log.replay.
    Replayer`'s do."""

    def __init__(self, node: "BrokerNode") -> None:
        self.node = node
        #: Aggregation state per event class.
        self._links: Dict[str, _UpLink] = {}

    def reset(self) -> None:
        """What a crash of the broker leaves: nothing."""
        self._links.clear()
        self._changed()

    def send(self, payload: Any) -> None:
        """Send one control message to the parent."""
        self.node.links.send(self.node.parent, payload)

    def _form(self, stored: Filter, event_class: str) -> Filter:
        node = self.node
        return weaken_filter(stored, node._association_for(event_class), node.stage + 1)

    def _changed(self) -> None:
        self.node.counters.propagated_filters = sum(
            len(link.propagated) for link in self._links.values()
        )

    def announce(self, stored: Filter, event_class: str, first: bool = True) -> None:
        """A pair was stored under ``stored``; ``first`` says the filter
        itself was not stored before.

        Aggregated, only a first occurrence counts: refcount its weakened
        form, and on the form's first occurrence either suppress it under
        a propagated cover or propagate it (demoting forms it strictly
        covers).  Un-aggregated the form goes up each time.
        """
        node = self.node
        if node.parent is None:
            return
        if not node.config.aggregate:
            node.counters.req_inserts_sent += 1
            self.send(ReqInsert(self._form(stored, event_class), event_class, node))
            return
        if not first:
            return
        form = self._form(stored, event_class)
        link = self._links.get(event_class)
        if link is None:
            link = self._links[event_class] = _UpLink()
        count = link.forms.get(form, 0)
        link.forms[form] = count + 1
        if count:
            return  # form already live: propagated or suppressed
        link.index.add(form)
        cover = link.propagated_cover(form)
        if cover is not None:
            link.cover_of[form] = cover
            link.covered.setdefault(cover, {})[form] = None
            node.counters.propagations_suppressed += 1
            if node.tracer.enabled:
                node._span(
                    "propagation-suppressed",
                    ("filter", str(form)),
                    ("cover", str(cover)),
                )
        else:
            self._propagate(link, form, event_class)
        self._changed()

    def _propagate(self, link: _UpLink, form: Filter, event_class: str) -> None:
        """``req-Insert`` one form, then demote propagated forms it
        strictly covers (withdrawn only *after* the replacement is up)."""
        node = self.node
        link.propagated[form] = None
        node.counters.req_inserts_sent += 1
        self.send(ReqInsert(form, event_class, node))
        for other in link.index.covers_of(form):
            if other == form or other not in link.propagated:
                continue
            if other.covers(form):
                continue  # equivalent, not strictly covered
            for child_form in link.covered.pop(other, {}):
                link.cover_of[child_form] = form
                link.covered.setdefault(form, {})[child_form] = None
            del link.propagated[other]
            link.cover_of[other] = form
            link.covered.setdefault(form, {})[other] = None
            node.counters.withdrawals_sent += 1
            self.send(Withdraw(other, event_class, node))
            if node.tracer.enabled:
                node._span(
                    "propagation-demoted", ("filter", str(other)), ("cover", str(form))
                )

    def retract(self, stored: Filter, event_class: str) -> None:
        """``stored`` lost its last destination: drop one refcount of its
        weakened form; when the form dies, either detach it (suppressed)
        or run uncover re-propagation and withdraw it (propagated).
        Un-aggregated nothing is said: the parent's lease runs out."""
        node = self.node
        link = self._links.get(event_class)
        if node.parent is None or link is None or not node.config.aggregate:
            return
        form = self._form(stored, event_class)
        count = link.forms.get(form)
        if count is None:
            return
        if count > 1:
            link.forms[form] = count - 1
            return
        del link.forms[form]
        link.index.discard(form)
        if form in link.propagated:
            self._uncover(link, form, event_class)
        else:
            cover = link.cover_of.pop(form, None)
            if cover is not None:
                children = link.covered.get(cover)
                if children is not None:
                    children.pop(form, None)
                    if not children:
                        del link.covered[cover]
        self._changed()

    def _uncover(self, link: _UpLink, form: Filter, event_class: str) -> None:
        """Uncover re-propagation: re-home or re-propagate every form the
        dying cover suppressed, *then* withdraw the cover."""
        node = self.node
        del link.propagated[form]
        orphans = list(link.covered.pop(form, {}))
        # Most-general first: an early promoted orphan can re-home the
        # rest, minimizing re-propagations.
        orphans.sort(key=lambda g: (len(g.constraints), str(g)))
        for orphan in orphans:
            link.cover_of.pop(orphan, None)
            new_cover = link.propagated_cover(orphan)
            if new_cover is not None:
                link.cover_of[orphan] = new_cover
                link.covered.setdefault(new_cover, {})[orphan] = None
            else:
                node.counters.uncover_repropagations += 1
                if node.tracer.enabled:
                    node._span(
                        "uncover-repropagate",
                        ("filter", str(orphan)),
                        ("cover", str(form)),
                    )
                self._propagate(link, orphan, event_class)
        node.counters.withdrawals_sent += 1
        self.send(Withdraw(form, event_class, node))

    def renewal_items(self) -> Dict[Tuple[Filter, str], None]:
        """The ``(form, event_class)`` pairs a renewal to the parent
        carries (insertion-ordered, deduplicated)."""
        node = self.node
        items: Dict[Tuple[Filter, str], None] = {}
        if node.config.aggregate:
            # Renewals piggyback only the maximal (propagated) forms:
            # suppressed forms have no lease upstream to keep alive.
            for event_class, link in self._links.items():
                for form in link.propagated:
                    items[(form, event_class)] = None
        else:
            for filter_ in node.table.filters():
                event_class = node._filter_class.get(filter_)
                if event_class is not None:
                    items[(self._form(filter_, event_class), event_class)] = None
        return items

    def renew(self) -> None:
        """Refresh-or-restore at the parent everything propagated there."""
        if self.node.parent is None:
            return
        items = self.renewal_items()
        if items:
            self.send(Renewal(tuple(items)))

    def reach(self, metadata: Any) -> float:
        """The refcount-weighted number of live forms ``metadata``
        matches — the covering index's view of how many stored
        subscriptions an event is likely to reach."""
        link = self._links.get(metadata.event_class)
        if link is None:
            return 0.0
        return float(
            sum(count for form, count in link.forms.items() if form.matches(metadata))
        )
