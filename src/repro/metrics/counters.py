"""Per-process counters feeding the LC/RLC/MR metrics.

Every filtering location (broker node or subscriber runtime) owns a
:class:`NodeCounters` and updates it as events flow: the paper's
simulation likewise counts, "at each node, the number of filters, the
number of received events and the number of matched events" (§5.3).
"""

from dataclasses import dataclass
from typing import Dict


@dataclass
class CacheStats:
    """Routing-decision cache counters for one filtering location.

    Shared by reference between a :class:`NodeCounters` and the node's
    :class:`~repro.filters.engine.CachedMatchEngine` instances, so the
    stats survive compaction rebuilds of the underlying engine.
    """

    #: Match calls answered from the memo (≈ zero constraint probes).
    hits: int = 0
    #: Match calls that ran the full engine probe.
    misses: int = 0
    #: Cache flushes caused by a table mutation (insert/remove/expiry).
    invalidations: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    def hit_rate(self) -> float:
        """Fraction of match calls served from the cache (0.0 when idle)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def snapshot(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
        }


@dataclass
class NodeCounters:
    """Counters for one filtering location.

    The fields are plain numbers.  What most locations never touch — the
    routing-cache stats and the two breakdown tables — is made on first
    use, so that a subscriber runtime's counters stay one object.
    """

    #: Events received for filtering ("# of event received" in LC).
    events_received: int = 0
    #: Events that matched at least one local filter.
    events_matched: int = 0
    #: Copies forwarded downstream (fan-out; one event may count many times).
    events_forwarded: int = 0
    #: Events delivered to the application (subscriber runtimes only).
    events_delivered: int = 0
    #: Individual filter evaluations performed.
    filter_evaluations: int = 0
    #: Current number of filters held ("# of filter" in LC); a gauge the
    #: owner refreshes whenever its table changes.
    filters_held: int = 0
    #: Peak of ``filters_held`` over the run.
    max_filters_held: int = 0
    #: Control-plane messages processed (subscriptions, renewals, ...).
    control_messages: int = 0
    #: Dispatch wakeups that processed at least one event.
    batches: int = 0
    #: Events processed across all batches (= events_received for brokers).
    batched_events: int = 0
    #: Largest run of events processed in a single wakeup.
    max_batch_size: int = 0
    #: ``req-Insert`` control messages sent to the parent.
    req_inserts_sent: int = 0
    #: ``Withdraw`` control messages sent to the parent.
    withdrawals_sent: int = 0
    #: Upward propagations suppressed because a propagated filter
    #: already covered the new weakened filter (covering aggregation).
    propagations_suppressed: int = 0
    #: Covered filters re-propagated when their cover died (uncover).
    uncover_repropagations: int = 0
    #: Current number of filters propagated to the parent (the maximal
    #: set under covering); a gauge like ``filters_held``.
    propagated_filters: int = 0
    #: Reliable-channel frames retransmitted after an ack timeout.
    control_retransmits: int = 0
    #: Duplicate reliable-channel frames discarded on receipt.
    control_dups_discarded: int = 0
    #: Events shed by any bounded queue this node owns (total).
    events_shed: int = 0
    #: Flow-control credits granted to upstream senders.
    credits_granted: int = 0
    #: Sends that found the link credit window exhausted.
    credit_stalls: int = 0
    #: Publishes refused by the publisher's token-bucket rate limiter.
    rate_limited: int = 0
    #: Overload-detector state transitions (either direction).
    overload_transitions: int = 0
    #: Events appended to this node's durable event log (new records
    #: only; idempotent re-appends of wire duplicates excluded).
    events_logged: int = 0
    #: Events sent while replaying (catch-up history + recovery replay).
    replay_events_sent: int = 0
    #: Replayed events discarded as already seen (subscriber session
    #: dedup, or a recovering broker's own-log dedup).
    replay_dupes_discarded: int = 0
    #: Live events tapped into in-flight catch-up sessions.
    catchup_taps: int = 0
    #: Catch-up events delivered to the application (subset of
    #: ``events_delivered``; subscriber runtimes only).
    catchup_delivered: int = 0
    #: Credits returned for events a lossy link swallowed (gap-grant).
    credit_gap_grants: int = 0
    #: Dirty-attribute recompiles performed by a compiled match engine.
    compile_rebuilds: int = 0
    #: Residual (non-indexable) predicates evaluated on candidates that
    #: survived the compiled bitmap tiers.
    residual_evaluations: int = 0
    #: Information flows currently installed (gauge; brokers only).
    flows_installed: int = 0
    #: Input events consumed by installed flows (after their filters).
    flow_events_in: int = 0
    #: Derived events republished by installed flows.
    flow_events_out: int = 0
    #: Open windows discarded by a crash (soft-state loss, DESIGN §15).
    flow_windows_dropped: int = 0
    #: Input events absorbed by collapse operators (inputs minus outputs).
    flow_collapsed_events: int = 0
    #: Derived events originated here, in the publisher role (exactly
    #: once, at the deriving broker — never again downstream).
    events_published: int = 0
    #: Wire bytes of every envelope that reached this runtime (the
    #: downlink-bandwidth measure; subscriber runtimes only).
    bytes_received: int = 0
    #: ``SubscriptionRequest``s dropped because their filter matches
    #: nothing (brokers only).  Not in :meth:`snapshot`: the recorded
    #: schedule hashes are taken over its keys.
    subscriptions_refused: int = 0

    # Not fields: ``None`` until the properties below make them.
    _cache = None
    _sheds_by_reason = None
    _offline_drops = None

    @property
    def cache(self) -> CacheStats:
        """Routing-decision cache stats (shared with the node's match
        engines)."""
        if self._cache is None:
            self._cache = CacheStats()
        return self._cache

    @property
    def sheds_by_reason(self) -> Dict[str, int]:
        """``events_shed`` broken down by reason ("queue-overflow",
        "outbound-overflow", "offline-buffer", "peer-reset", ...)."""
        if self._sheds_by_reason is None:
            self._sheds_by_reason = {}
        return self._sheds_by_reason

    @property
    def offline_drops(self) -> Dict[str, int]:
        """Durable offline-buffer drops per subscriber name."""
        if self._offline_drops is None:
            self._offline_drops = {}
        return self._offline_drops

    def on_event(self, matched: bool, forwarded_to: int, evaluations: int = 0) -> None:
        """Record one filtered event (a broker books ``evaluations`` per
        served run instead, as the engine's delta)."""
        self.events_received += 1
        if matched:
            self.events_matched += 1
        self.events_forwarded += forwarded_to
        self.filter_evaluations += evaluations

    def on_shed(self, reason: str, count: int = 1) -> None:
        """Record ``count`` events shed for ``reason``."""
        self.events_shed += count
        self.sheds_by_reason[reason] = self.sheds_by_reason.get(reason, 0) + count

    def on_batch(self, size: int) -> None:
        """Record one dispatch wakeup processing a run of ``size`` events."""
        self.batches += 1
        self.batched_events += size
        if size > self.max_batch_size:
            self.max_batch_size = size

    def set_filters_held(self, count: int) -> None:
        self.filters_held = count
        if count > self.max_filters_held:
            self.max_filters_held = count

    def snapshot(self) -> Dict[str, int]:
        """Plain-dict copy for reports."""
        cache = self._cache if self._cache is not None else CacheStats()
        return {
            "events_received": self.events_received,
            "events_matched": self.events_matched,
            "events_forwarded": self.events_forwarded,
            "events_delivered": self.events_delivered,
            "filter_evaluations": self.filter_evaluations,
            "filters_held": self.filters_held,
            "max_filters_held": self.max_filters_held,
            "control_messages": self.control_messages,
            "cache_hits": cache.hits,
            "cache_misses": cache.misses,
            "cache_invalidations": cache.invalidations,
            "batches": self.batches,
            "batched_events": self.batched_events,
            "max_batch_size": self.max_batch_size,
            "req_inserts_sent": self.req_inserts_sent,
            "withdrawals_sent": self.withdrawals_sent,
            "propagations_suppressed": self.propagations_suppressed,
            "uncover_repropagations": self.uncover_repropagations,
            "propagated_filters": self.propagated_filters,
            "control_retransmits": self.control_retransmits,
            "control_dups_discarded": self.control_dups_discarded,
            "events_shed": self.events_shed,
            "credits_granted": self.credits_granted,
            "credit_stalls": self.credit_stalls,
            "rate_limited": self.rate_limited,
            "overload_transitions": self.overload_transitions,
            "events_logged": self.events_logged,
            "replay_events_sent": self.replay_events_sent,
            "replay_dupes_discarded": self.replay_dupes_discarded,
            "catchup_taps": self.catchup_taps,
            "catchup_delivered": self.catchup_delivered,
            "credit_gap_grants": self.credit_gap_grants,
            "compile_rebuilds": self.compile_rebuilds,
            "residual_evaluations": self.residual_evaluations,
            "flows_installed": self.flows_installed,
            "flow_events_in": self.flow_events_in,
            "flow_events_out": self.flow_events_out,
            "flow_windows_dropped": self.flow_windows_dropped,
            "flow_collapsed_events": self.flow_collapsed_events,
            "events_published": self.events_published,
            "bytes_received": self.bytes_received,
        }
