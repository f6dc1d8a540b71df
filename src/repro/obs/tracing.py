"""Causal event tracing: one span per hop of every published event, and
one per control-plane decision, in the one recorder a system has.

Every published envelope already carries a stable identity —
``event_id = (publisher name, publish sequence)`` — which doubles as the
**trace id**: no extra context needs to travel on the wire.  Each hop of
the event's path appends a :class:`Span` to the shared
:class:`EventTracer`:

- ``publish`` at the publisher (event class, publish time),
- ``hop`` at each broker stage (which neighbour it came from, match
  verdict, fan-out, queue/defer time): a view over the result of the
  run's one ``match_batch`` call, the same whatever the engine (what
  matching cost is in the counters, per run),
- ``deliver`` at the subscriber runtime (exact-filter verdict, delivery
  latency).

Control-plane occurrences record spans with ``trace_id=None``:
``retransmit`` (reliable-channel timeout resends, with the payload kinds
— ReqInsert/Withdraw/Renewal — being retried), ``epoch-reset`` /
``channel-reset`` (sender/receiver sides of a channel incarnation bump),
and wire-level ``drop`` / ``dup`` spans from the fault injector.

So do the routing decisions of Figure 5 and §4.3, at the broker that
took them (at the subscriber for ``joined``):

=========================== ==========================================
kind                        details
=========================== ==========================================
``advertise``               ``event_class``, ``changed`` (re-flooded?)
``route-covering``          ``target`` (child of the strongest cover)
``wildcard-attach``         ``attribute``, ``target_stage`` (§4.5)
``subscriber-insert``       ``subscriber``, ``filter`` (as stored)
``subscription-refused``    ``subscriber`` (its filter matches nothing)
``joined``                  ``home``, ``hops`` (redirects taken)
``propagation-suppressed``  ``filter``, ``cover`` (already propagated)
``propagation-demoted``     ``filter``, ``cover`` (withdrawn under it)
``uncover-repropagate``     ``filter``, ``cover`` (the cover that died)
``lease-expired``           ``destination`` (silent for 3×TTL)
``disconnect``              ``subscriber``, ``durable``
``reconnect``               ``subscriber``, ``replayed`` (buffered)
=========================== ==========================================

Flow control (see :mod:`repro.flow`) adds three kinds: ``shed`` (an
event dropped by a bounded queue — carries the reason, and the event's
trace id when one exists, so a missing delivery is explainable),
``credit-grant`` (credits flowing back upstream, ``trace_id=None``), and
``overload`` (a broker's overload-detector transition, with the new
state and the queue-depth EWMA).

The durable log and replayer (see :mod:`repro.log`) add their own:
``replay`` (one re-injected event, **sharing the original event's trace
id** with a ``mode`` of ``history``/``tap``/``recovery``),
``credit-gap`` (the root re-crediting events a lossy wire swallowed,
detected via data-frame sequence gaps), ``replay-request`` (a restarted
broker asking the root to resend from its last logged offset), and the
session markers ``catch-up-start`` / ``catch-up-done`` /
``catch-up-live`` and ``recovery-start`` / ``recovery-done`` (all
``trace_id=None``).  Replayed deliveries at the subscriber are ordinary
``deliver`` spans with a ``replay`` detail, so the audit verifier
(:func:`repro.log.audit.verify_exactly_once`) counts live and replayed
copies uniformly.

In-broker information flows (see :mod:`repro.streams`, DESIGN §15) add:
``publish`` **at the deriving broker** (derived events re-enter the
publish path with the broker in the publisher role, so path
reconstruction anchors there), ``derive`` (same trace id as that
publish; names the flow, the operator kind, and the contributing input
trace ids — the causal link from a derived event back to the raw events
it summarizes), ``window-dropped`` (a crash discarding one open window's
soft state: flow, group, window start, pending count — the span the
audit's excusal windows are computed from), and the lifecycle markers
``flow-install`` / ``flow-remove`` / ``flow-renew`` (``trace_id=None``).

Determinism: spans are appended in simulator execution order, which is
deterministic for a fixed seed; every recorded value is derived from
names, simulated times, and counters — never from ``id()``, wall clocks,
or hash iteration order — so :meth:`EventTracer.dump` is byte-identical
across runs with the same seed.

Cost when disabled: emission sites are guarded by ``if tracer.enabled:``
*before* building any arguments, so a disabled tracer costs one
attribute load and branch per site and allocates nothing.
"""

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

#: Stage pseudo-numbers for non-broker span sources.  Subscriber runtimes
#: are the paper's stage 0; publishers sit "above" the root on the inject
#: path and network-level spans have no stage at all.
PUBLISHER_STAGE = -1
NETWORK_STAGE = -2
SUBSCRIBER_STAGE = 0


@dataclass(frozen=True)
class Span:
    """One hop (or control-plane occurrence) of a trace.

    ``details`` is a tuple of ``(key, value)`` pairs rather than a dict so
    a span is hashable and its rendering order is fixed at emission.
    """

    seq: int
    time: float
    kind: str
    node: str
    stage: int
    trace_id: Optional[Tuple[Any, ...]]
    details: Tuple[Tuple[str, Any], ...] = ()

    def detail(self, key: str, default: Any = None) -> Any:
        for k, v in self.details:
            if k == key:
                return v
        return default

    def render(self) -> str:
        """One deterministic text line (the unit of :meth:`EventTracer.dump`)."""
        parts = [
            f"{self.seq}",
            f"t={self.time!r}",
            self.kind,
            f"@{self.node}",
            f"stage={self.stage}",
        ]
        if self.trace_id is not None:
            parts.append(f"id={self.trace_id[0]}/{self.trace_id[1]}")
        parts.extend(f"{key}={value!r}" for key, value in self.details)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Span({self.render()})"


class EventTracer:
    """Append-only span sink shared by every process of one system.

    ``enabled`` is the only hot-path state: emission sites check it
    before building span arguments, and :meth:`span` re-checks it so a
    stray unguarded call site stays correct (just slower).
    """

    __slots__ = ("enabled", "_spans", "_seq")

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self._spans: List[Span] = []
        self._seq = 0

    def span(
        self,
        time: float,
        kind: str,
        node: str,
        stage: int,
        trace_id: Optional[Tuple[Any, ...]] = None,
        details: Tuple[Tuple[str, Any], ...] = (),
    ) -> None:
        """Append one span (no-op when disabled)."""
        if not self.enabled:
            return
        self._spans.append(Span(self._seq, time, kind, node, stage, trace_id, details))
        self._seq += 1

    def __len__(self) -> int:
        return len(self._spans)

    def __iter__(self) -> Iterator[Span]:
        return iter(self._spans)

    def clear(self) -> None:
        self._spans.clear()
        self._seq = 0

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def for_event(self, trace_id: Tuple[Any, ...]) -> List[Span]:
        """Spans of one event, in execution (= causal) order."""
        return [s for s in self._spans if s.trace_id == trace_id]

    def event_ids(self) -> List[Tuple[Any, ...]]:
        """Distinct trace ids in first-seen order."""
        seen: Dict[Tuple[Any, ...], None] = {}
        for span in self._spans:
            if span.trace_id is not None and span.trace_id not in seen:
                seen[span.trace_id] = None
        return list(seen)

    def kinds(self, *kinds: str) -> List[Span]:
        """All spans of the given kinds, in execution order."""
        wanted = set(kinds)
        return [s for s in self._spans if s.kind in wanted]

    def dump(self, kinds: Optional[Tuple[str, ...]] = None) -> bytes:
        """Byte-deterministic serialization of the trace.

        ``kinds`` restricts the dump to the given span kinds (the
        determinism gates compare e.g. only shed/credit/overload spans
        across same-seed runs)."""
        spans = self._spans if kinds is None else self.kinds(*kinds)
        return "\n".join(s.render() for s in spans).encode("utf-8")

    # ------------------------------------------------------------------
    # Path reconstruction
    # ------------------------------------------------------------------

    def reconstruct(self, trace_id: Tuple[Any, ...]) -> List["PathReconstruction"]:
        """Reconstruct every delivery path of one event (see
        :func:`reconstruct_paths`)."""
        return reconstruct_paths(self.for_event(trace_id))

    def reconstruct_all(self) -> Iterator[List["PathReconstruction"]]:
        """Every event's delivery paths, one list per event in
        :meth:`event_ids` order — what a whole-trace report iterates.
        Spans are grouped by trace id in one pass; :meth:`reconstruct`
        per id would scan them all once per event."""
        by_event: Dict[Tuple[Any, ...], List[Span]] = {}
        for span in self._spans:
            if span.trace_id is not None:
                by_event.setdefault(span.trace_id, []).append(span)
        return map(reconstruct_paths, by_event.values())

    def incomplete_deliveries(self) -> List["PathReconstruction"]:
        """Every delivery whose span chain does *not* reach a publisher.

        The trace-completeness gate: an empty list means every delivered
        event's spans reconstruct a contiguous publisher-to-subscriber
        path.  Deliveries where the exact filter rejected the event are
        not deliveries and are ignored.
        """
        return [
            path
            for paths in self.reconstruct_all()
            for path in paths
            if path.delivered and not path.complete
        ]


@dataclass(frozen=True)
class PathReconstruction:
    """One subscriber's reconstructed path for one event.

    ``spans`` runs source-first: publish span (when found), then broker
    hops top stage downward, then the deliver span.  ``complete`` means
    the chain is contiguous from a publish span to the deliver span with
    a hop span at every broker in between.
    """

    trace_id: Tuple[Any, ...]
    subscriber: str
    spans: Tuple[Span, ...]
    complete: bool
    delivered: bool

    @property
    def hop_latencies(self) -> List[Tuple[str, int, float]]:
        """``(node, stage, seconds since previous hop)`` per chain link."""
        out: List[Tuple[str, int, float]] = []
        for previous, span in zip(self.spans, self.spans[1:]):
            out.append((span.node, span.stage, span.time - previous.time))
        return out

    def render(self) -> str:
        """Human-readable multi-line path listing."""
        head = (
            f"event {self.trace_id[0]}/{self.trace_id[1]} -> {self.subscriber} "
            f"({'complete' if self.complete else 'BROKEN'}"
            f"{', delivered' if self.delivered else ', filtered out'})"
        )
        lines = [head]
        previous = None
        for span in self.spans:
            delta = "" if previous is None else f" (+{span.time - previous:.6g}s)"
            detail = " ".join(f"{k}={v!r}" for k, v in span.details)
            lines.append(
                f"  [{span.time:.6f}] {span.kind:<8} stage={span.stage:>2} "
                f"{span.node}{delta} {detail}".rstrip()
            )
            previous = span.time
        return "\n".join(lines)


def reconstruct_paths(spans: List[Span]) -> List[PathReconstruction]:
    """Rebuild per-subscriber paths from one event's spans.

    Works backwards from each ``deliver`` span: its ``src`` detail names
    the home broker; each broker ``hop`` span's ``src`` names the
    neighbour it received the event from; the chain is complete when it
    reaches a node with a ``publish`` span.  The overlay is a tree, so a
    broker receives a given event from exactly one upstream neighbour
    (fault-injected duplicates repeat the same edge) and the backwards
    walk is unambiguous.
    """
    publishes: Dict[str, Span] = {}
    hops: Dict[str, Span] = {}
    delivers: List[Span] = []
    for span in spans:
        if span.kind == "publish":
            publishes.setdefault(span.node, span)
        elif span.kind == "hop":
            hops.setdefault(span.node, span)
        elif span.kind == "deliver":
            delivers.append(span)

    paths: List[PathReconstruction] = []
    for deliver in delivers:
        chain: List[Span] = [deliver]
        cursor = deliver.detail("src")
        complete = False
        visited = {deliver.node}
        while cursor is not None and cursor not in visited:
            visited.add(cursor)
            publish = publishes.get(cursor)
            if publish is not None:
                chain.append(publish)
                complete = True
                break
            hop = hops.get(cursor)
            if hop is None:
                break
            chain.append(hop)
            cursor = hop.detail("src")
        chain.reverse()
        paths.append(
            PathReconstruction(
                trace_id=deliver.trace_id,
                subscriber=deliver.node,
                spans=tuple(chain),
                complete=complete,
                delivered=bool(deliver.detail("delivered", 0)),
            )
        )
    return paths
