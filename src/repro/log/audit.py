"""Exactly-once verification of delivery traces against the root's log.

The scenario harness (:mod:`repro.experiments.scenario`) judges whatever
its steps can express against its own oracle, the replay sweep
included.  This verifier serves what they cannot: derived events of
in-broker flows (:mod:`repro.experiments.flows`) and a run on a socket
runtime audited from the root's on-disk log after the fact.  Every
record of the root's log (every admitted event) that matches an audited
subscription's filter is expected — an audited subscription was there
before the first record — and the tracer's ``deliver`` spans that
delivered something are the observed copies: none is a **gap**, more
than one a **duplicate**.  A finding whose publish or delivery time
falls inside a declared fault window is excused; the guarantee, what
:attr:`AuditReport.clean` asserts, is exactly-once *outside* them.
Copies are counted per span, so each audited subscriber holds exactly
one subscription matching its audited filter.
"""

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.filters.filter import Filter
from repro.log.eventlog import EventLog
from repro.obs.tracing import EventTracer


@dataclass(frozen=True)
class AuditSubscription:
    """One subscription to verify: ``subscriber`` is the runtime's
    process name (what ``deliver`` spans carry as their node)."""

    subscriber: str
    filter: Filter


@dataclass(frozen=True)
class AuditFinding:
    """One exactly-once violation candidate."""

    kind: str  # "gap" | "duplicate"
    subscriber: str
    event_id: Optional[tuple]
    offset: int
    publish_time: float
    copies: int
    in_fault_window: bool

    def __str__(self) -> str:
        shelter = " [fault window]" if self.in_fault_window else ""
        eid = f"{self.event_id[0]}/{self.event_id[1]}" if self.event_id else "?"
        return (
            f"{self.kind}: {eid} (offset {self.offset}, "
            f"t={self.publish_time:.4f}) at {self.subscriber} "
            f"copies={self.copies}{shelter}"
        )


@dataclass
class AuditReport:
    """The verifier's verdict: expected deliveries, how many were
    observed, and every gap and duplicate."""

    expected: int = 0
    delivered: int = 0
    findings: List[AuditFinding] = field(default_factory=list)

    @property
    def gaps(self) -> List[AuditFinding]:
        return [f for f in self.findings if f.kind == "gap"]

    @property
    def duplicates(self) -> List[AuditFinding]:
        return [f for f in self.findings if f.kind == "duplicate"]

    @property
    def violations(self) -> List[AuditFinding]:
        """Findings outside every fault window — real violations."""
        return [f for f in self.findings if not f.in_fault_window]

    @property
    def excused(self) -> List[AuditFinding]:
        """Findings inside a fault window — permitted by the guarantee."""
        return [f for f in self.findings if f.in_fault_window]

    @property
    def clean(self) -> bool:
        """True when exactly-once holds outside fault windows."""
        return not self.violations

    def render(self) -> str:
        """The verdict and every finding (the CI artifact)."""
        head = (
            f"exactly-once audit: {self.delivered}/{self.expected} expected deliveries "
            f"observed, {len(self.gaps)} gaps, {len(self.duplicates)} duplicates, "
            f"{len(self.violations)} outside fault windows: "
            + ("CLEAN" if self.clean else "VIOLATED")
        )
        return "\n".join([head] + [f"  {finding}" for finding in self.findings])


def verify_exactly_once(
    log: EventLog,
    tracer: EventTracer,
    subscriptions: Sequence[AuditSubscription],
    fault_windows: Iterable[Tuple[float, float]] = (),
) -> AuditReport:
    """Diff delivery traces against the log (see the module docstring);
    ``fault_windows`` are ``(start, end)`` simulated-time intervals."""
    windows = tuple(fault_windows)

    def in_windows(t: Optional[float]) -> bool:
        return t is not None and any(a <= t <= b for a, b in windows)

    # (subscriber name, trace id) -> times of spans that delivered.
    copies: Dict[Tuple[str, tuple], List[float]] = {}
    for span in tracer.kinds("deliver"):
        if span.trace_id is None or not span.detail("delivered", 0):
            continue
        copies.setdefault((span.node, span.trace_id), []).append(span.time)

    report = AuditReport()
    for record in log:
        publish_time = (
            record.envelope.published_at
            if record.envelope.published_at is not None
            else record.time
        )
        for subscription in subscriptions:
            if not subscription.filter.matches(record.envelope.metadata):
                continue
            report.expected += 1
            key = (subscription.subscriber, record.event_id)
            observed = copies.get(key, []) if record.event_id else []
            report.delivered += min(len(observed), 1)
            if len(observed) == 1:
                continue
            excused = in_windows(publish_time) or any(
                in_windows(t) for t in observed
            )
            report.findings.append(
                AuditFinding(
                    kind="gap" if not observed else "duplicate",
                    subscriber=subscription.subscriber,
                    event_id=record.event_id,
                    offset=record.offset,
                    publish_time=publish_time,
                    copies=len(observed),
                    in_fault_window=excused,
                )
            )
    return report


def dropped_window_excusals(
    tracer: EventTracer, slack: float = 0.0
) -> Tuple[Tuple[float, float], ...]:
    """Fault windows for operator state lost to crashes (DESIGN §15): a
    crash discards every open flow window, announced by a
    ``window-dropped`` span, and the derived events it would have
    emitted are legitimately absent.  Each span becomes a
    ``(window_start, drop_time + slack)`` interval to pass to
    :func:`verify_exactly_once`: a derived-event gap is excused iff its
    input window was dropped by a crash."""
    intervals: List[Tuple[float, float]] = []
    for span in tracer.kinds("window-dropped"):
        start = span.detail("window_start")
        if start is None:
            start = span.time
        intervals.append((float(start), span.time + slack))
    return tuple(intervals)
