"""One broker pipeline, same schedules as the two it replaced.

``test_byte_identity`` pins bytes and spans of the default run only.
The admit→match→forward merge (DESIGN §10) also has to leave the
managed and the finite-speed schedules alone, so each is pinned here as
well: kernel steps, every broker's counters, per-link
bytes and the span dump, for one seed.  ``GOLDEN`` was recorded at the
parent commit ``44e1c45`` with :func:`measure` below, one fresh
interpreter per case.

The default engine has since become ``"compiled"`` without the routing
cache (DESIGN §12), which moved ``counters`` (``filter_evaluations``
counts the compiled engine's attribute probes, not the index's
constraint harvests; ``compile_rebuilds`` is no longer 0; the three
``cache_*`` counters are) and, then, ``spans``.

Three of the fourteen fields were re-recorded once more, with the same
:func:`measure`, when a traced run started to execute the code an
untraced run executes and ``TraceRecorder`` retired into the tracer
(DESIGN §10; the field-level diff of the un-hashed records is in
CHANGES.md, PR 19), in two steps.  One ``match_batch`` call per run:
``counters`` lost its ``events_matched_batch`` key (0 in every traced
run) and every ``hop`` span its ``cache`` and ``probed`` details, span
count unmoved.  One recorder: ``spans``/``n_spans`` gained the
control-plane spans (``advertise``, ``route-covering``,
``subscriber-insert``, ``joined`` in these runs), every older span kept
in place and renumbered.  Since no span detail depends on the engine
any more, ``INDEX_WITH_CACHE`` — what a system that asks for the old
default records — differs from ``GOLDEN`` in ``counters`` alone, which
is what shows the schedule does not move with the engine.

``total_bytes`` and ``links`` were re-recorded when the simulator
started to price a data message at what its frame costs on a socket
(DESIGN §16; per-link message counts unmoved, bytes × 1.23–1.29; the
field-level diff and the ratio per message kind are in CHANGES.md,
PR 24).  The other twelve fields did not move, nor did any of the
fourteen when the on-disk log changed format in the same PR.

``counters`` was re-recorded once more when the compiled engine began
to probe the most selective attribute first (DESIGN §12): fewer probes
are made, so ``filter_evaluations`` fell on three brokers per case and
no other counter moved (the field-level diff is in CHANGES.md, with
the probe order).  The other thirteen fields did not move.

``total_bytes`` and ``links`` were re-recorded once more when control
messages came to be priced from their fields instead of their ``repr``
(DESIGN §16): per-link message counts and every data kind's bytes
unmoved, every control kind's bytes moved (the per-kind diff is in
CHANGES.md, PR 32).  The other twelve fields did not move.

The ``managed`` case alone was re-recorded once more when a credited
link's frames came to carry its epoch and its grants to echo it
(DESIGN §10 *Recovery*): every ``DataFrame``, ``CreditGrant`` and
``ReplayBatch`` is 8 bytes longer (``total_bytes``, ``links``), and the
victim's two children renew it once more when its first data frame of
the new epoch reaches them, a restart they had already heard of by its
``ChannelReset`` (``processed_events`` +4: two renewals and their
acks; ``counters``: the victim's ``control_messages`` +2).  The
other ten fields did not move; the field-level diff is in CHANGES.md.

The ``managed`` case's ``processed_events`` was re-recorded when a
publisher came to take part in maintenance (a probe of its credited
link every half-TTL, DESIGN §10): its three publishers' ticks add 33
kernel steps; none of them found a stalled link, so nothing was sent
and the other thirteen fields did not move.

All three cases were re-recorded once more when a restart became one
protocol (DESIGN §8 *Crash recovery*): the victim's three resets
(``ChannelReset``) ride the reliable channel, each neighbour answers on
its own link, and the victim asks for its recovery replay at the last
answer rather than a fixed 0.5 s after the restart.  In the two cases
without a log that is three acks for the resets, three answers and their
acks, and the timer that would end ``resuming`` after one TTL
(``processed_events`` +10; ``total_bytes`` +336 and ``links`` on the six
links of the victim; its ``control_messages`` +3 in ``counters``); the
``epoch-reset`` span is gone, a ``serving`` span is new and
``channel-reset`` lost its ``incarnation`` detail (``spans``,
``n_spans`` −1).  In the ``managed`` case the replay, asked for 0.5 s
earlier, starts below the live traffic the victim logged meanwhile
(``from_offset`` 9, not 201): it re-drives 40 events instead of 38, 25
of them duplicates instead of 32, and ``delivered`` rises from 486 to
501, with ``events_logged``, the ``outbound-overflow`` sheds (+1) and
``drain_resumes`` (+1) moving with it.  ``delivered`` fell in no case.
The field-level diff is in CHANGES.md.
"""

import hashlib
import itertools

import pytest

import repro.core.subscription as subscription_module
from repro.core.engine import MultiStageEventSystem
from repro.flow import FlowConfig
from repro.log.config import LogConfig
from repro.overlay.invariants import credit_violations
from repro.overlay.node import BrokerNode
from repro.sim.network import FaultPlan
from repro.sim.rng import RngRegistry
from repro.workloads.bibliographic import BIB_EVENT_CLASS, BibliographicWorkload

SEED = 3

#: The managed case squeezes every bound so that each shedding site and
#: the head-of-line pause all fire within a few hundred events.
MANAGED_FLOW = FlowConfig(
    queue_capacity=8,
    outbound_capacity=1,
    link_window=3,
    control_window=8,
    policy="priority_by_selectivity",
)

CASES = {
    "default": dict(),
    "managed": dict(
        flow=MANAGED_FLOW, service_rate=2000.0, service_batch=8, log=LogConfig()
    ),
    "finite_speed": dict(service_rate=2000.0, service_batch=8),
}

GOLDEN = {'default': {'processed_events': 2676,
             'counters': '429ea0b3cc85e7038edc4499c188df08890840e44cba5abda3c681724a4b6cd1',
             'total_bytes': 540840,
             'links': 'a0cb54d7b2cc3bd403df1e644c526a79ed38142a714deaabdbf0e54463df2ca2',
             'spans': '8eee8bbb4d27d461d6a662e8bea6d4fc5706cda2c612efadd0de1fb2e0a92a56',
             'n_spans': 2138,
             'delivered': 617,
             'sheds': [],
             'credit_gap_grants': 0,
             'overload_transitions': 0,
             'events_logged': 0,
             'replay_events_sent': 0,
             'replay_dupes_discarded': 0,
             'drain_resumes': 0},
 'managed': {'processed_events': 4053,
             'counters': '53be583fc9738740b12b67944aacb24ee8242eada2b9f04f057dd6758b91260a',
             'total_bytes': 537553,
             'links': 'f6049afc92de0a32ef4a608272e6278990d05c25cd099fe1b49333bd54bb12e1',
             'spans': 'a4b47c359a55dcf5af648ce4d23769a8da6ed4b028ccdf3b54449ed4c4e22255',
             'n_spans': 2459,
             'delivered': 501,
             'sheds': [('outbound-overflow', 34),
                       ('peer-reset', 1),
                       ('queue-overflow', 92)],
             'credit_gap_grants': 2,
             'overload_transitions': 2,
             'events_logged': 744,
             'replay_events_sent': 40,
             'replay_dupes_discarded': 25,
             'drain_resumes': 39},
 'finite_speed': {'processed_events': 2881,
                  'counters': '06a55e7ac9dc2de6a75d4bd2d9ae66733070251bd4631f49d103c0ee13504dcd',
                  'total_bytes': 544348,
                  'links': '66e1eb2a614cb94afae196e7707d26d58b7c67f06aa174ae798a8584fc720e19',
                  'spans': '3c449d326efb38839a57731b1908f07f986cbcee02fa4d33d7f68af7f8d880ab',
                  'n_spans': 2145,
                  'delivered': 628,
                  'sheds': [],
                  'credit_gap_grants': 0,
                  'overload_transitions': 0,
                  'events_logged': 0,
                  'replay_events_sent': 0,
                  'replay_dupes_discarded': 0,
                  'drain_resumes': 0}}


#: The one engine-dependent field, for ``engine="index", cache=True``
#: (what a system got by default at ``44e1c45``).
INDEX_WITH_CACHE = {
    'default': {
        'counters': '5bf369b7699f800366ff2f9fefb93b42ed76c4faf816cd7820151a5a33c3d265',
    },
    'managed': {
        'counters': 'd2352e9810ab6112723fd61595893dc69164a4381030aced87c7bb4d66381301',
    },
    'finite_speed': {
        'counters': '142ed56d0af8e287273071f25db77241136312d11979cad2a036a5fbc27a6605',
    },
}

def measure(monkeypatch, case, **options):
    """One traced same-seed run of ``case``, summarised."""
    # Subscription ids come from a process-wide counter: start it where
    # a fresh interpreter would.
    monkeypatch.setattr(subscription_module, "_subscription_ids", itertools.count(1))
    resumes = []
    maybe_resume = BrokerNode._maybe_resume_drain

    def counting_resume(node):
        paused = node._drain_paused
        maybe_resume(node)
        if paused and not node._drain_paused:
            resumes.append(node.name)

    monkeypatch.setattr(BrokerNode, "_maybe_resume_drain", counting_resume)

    rngs = RngRegistry(SEED)
    system = MultiStageEventSystem(
        stage_sizes=(4, 2, 1), seed=SEED, ttl=1.0, tracing=True,
        **CASES[case], **options,
    )  # fmt: skip
    workload = BibliographicWorkload(
        rngs.stream("workload/records"), n_years=3, n_conferences=4,
        n_authors=20, n_records=60,
    )
    system.advertise(
        BIB_EVENT_CLASS,
        schema=workload.schema,
        association=workload.association(system.hierarchy.top_stage + 1),
    )
    system.drain()
    subscription_rng = rngs.stream("workload/subscriptions")
    for index in range(30):
        subscriber = system.create_subscriber(f"sub-{index}")
        system.subscribe(
            subscriber,
            workload.sample_subscription(subscription_rng),
            event_class=BIB_EVENT_CLASS,
        )
        system.drain()

    root = system.root
    victim = root.broker_children[0]
    # Frames lost toward the victim strand their credits until a later
    # frame shows the gap; the victim's restart resets whatever is left.
    plan = FaultPlan(SEED)
    now = system.sim.now
    plan.add_window(now, now + 0.3, loss=0.2, links=[(root, victim)])
    system.network.install_faults(plan)
    # The sampler tick is what feeds each broker's overload detector;
    # maintenance runs the renew and purge tasks among the events.
    system.start_sampling(0.05)
    system.start_maintenance()
    publishers = [system.create_publisher(f"feed-{i}") for i in range(3)]
    event_rng = rngs.stream("workload/events")
    for burst in range(40):
        for publisher in publishers:
            for _ in range(3):
                publisher.publish(workload.sample_record(event_rng))
        system.run_for(0.02)
        if burst == 15:
            system.kill(victim)
        if burst == 25:
            system.restore(victim)
    system.run_for(5.0)
    system.stop_sampling()
    system.stop_maintenance()
    system.drain()
    # Credit conservation through every shed site, the gap grants and
    # the crash + replay (vacuous in the two cases without flow).
    assert credit_violations(system, quiescent=True) == []

    nodes = system.hierarchy.nodes()
    counters = [
        (
            node.name,
            sorted(node.counters.snapshot().items()),
            sorted(node.counters.sheds_by_reason.items()),
        )
        for node in nodes
    ]
    links = sorted(
        (link.src.name, link.dst.name, link.messages, link.bytes)
        for link in system.network._links.values()
    )
    sheds = {}
    for node in nodes:
        for reason, count in node.counters.sheds_by_reason.items():
            sheds[reason] = sheds.get(reason, 0) + count
    return {
        "processed_events": system.sim.processed_events,
        "counters": hashlib.sha256(repr(counters).encode()).hexdigest(),
        "total_bytes": system.network.stats.total_bytes,
        "links": hashlib.sha256(repr(links).encode()).hexdigest(),
        "spans": hashlib.sha256(system.tracer.dump()).hexdigest(),
        "n_spans": len(system.tracer),
        "delivered": sum(s.counters.events_delivered for s in system.subscribers),
        "sheds": sorted(sheds.items()),
        **{
            name: sum(getattr(n.counters, name) for n in nodes)
            for name in (
                "credit_gap_grants",
                "overload_transitions",
                "events_logged",
                "replay_events_sent",
                "replay_dupes_discarded",
            )
        },
        "drain_resumes": len(resumes),
    }


@pytest.mark.parametrize("case", sorted(CASES))
def test_schedule_equals_the_parent_commit(monkeypatch, case):
    assert measure(monkeypatch, case) == GOLDEN[case]


@pytest.mark.parametrize("case", sorted(CASES))
def test_engine_and_cache_move_only_the_counters_and_spans_hashes(monkeypatch, case):
    """Of the two hashes only ``counters`` still moves: the other
    thirteen fields — kernel steps, bytes, per-link traffic, the span
    dump, deliveries, sheds — are one record for both engines."""
    assert set(INDEX_WITH_CACHE[case]) == {"counters"}
    assert measure(monkeypatch, case, engine="index", cache=True) == {
        **GOLDEN[case],
        **INDEX_WITH_CACHE[case],
    }


def test_managed_golden_exercises_every_merged_branch():
    """The managed golden is not vacuous: in the recorded run (which the
    test above holds every run equal to) each shedding site, the gap
    grant, the overload detector, the log, recovery replay and the
    paused→resumed drain all occurred, and events still got through."""
    record = GOLDEN["managed"]
    sheds = dict(record["sheds"])
    for reason in ("queue-overflow", "outbound-overflow", "peer-reset"):
        assert sheds.get(reason, 0) > 0, reason
    for count in (
        "credit_gap_grants",
        "overload_transitions",
        "events_logged",
        "replay_events_sent",
        "replay_dupes_discarded",
        "drain_resumes",
        "delivered",
    ):
        assert record[count] > 0, count
