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

GOLDEN = {'default': {'processed_events': 2666,
             'counters': '53d11f4d992ce5a81fad9cb36c6fa8023e5eaf09f97452e2c28d24e69591c031',
             'total_bytes': 540504,
             'links': '947f13037af24180ecb99d89288f81555070b882094c92330a16a5a0c2eedc1c',
             'spans': 'dcdc3ee8197c5277e2378de0ff80038d766f42fce63a609dd31ca3f9a689aa46',
             'n_spans': 2139,
             'delivered': 617,
             'sheds': [],
             'credit_gap_grants': 0,
             'overload_transitions': 0,
             'events_logged': 0,
             'replay_events_sent': 0,
             'replay_dupes_discarded': 0,
             'drain_resumes': 0},
 'managed': {'processed_events': 3965,
             'counters': '7f7bd74d59cfd0c7fb956314940681616d86480fb119bd0239d59b2762cc4e6c',
             'total_bytes': 530097,
             'links': '685fd4e732f71c919da45829ff2f5a97634f7dbe7b4972e423e99373600ac43a',
             'spans': '26e9f3f51645dc9a0fdc10e6a3a38c7b486d5e5bd0b9bbe9c630f47098f32a70',
             'n_spans': 2417,
             'delivered': 486,
             'sheds': [('outbound-overflow', 33),
                       ('peer-reset', 1),
                       ('queue-overflow', 92)],
             'credit_gap_grants': 2,
             'overload_transitions': 2,
             'events_logged': 730,
             'replay_events_sent': 38,
             'replay_dupes_discarded': 32,
             'drain_resumes': 38},
 'finite_speed': {'processed_events': 2871,
                  'counters': 'aca30a92857d7fbc76fbfeb6e97586645f8dfb3e5725cbf2fee32d9b742cb8d7',
                  'total_bytes': 544012,
                  'links': 'b54ed1d399d8246fc700a4027ad6821ea24d0aacb6c91c50e9a62c05dfac6562',
                  'spans': '00781b66e3ab5c922574ef0d5fb16b2610c9a3a8d1b947b3f72ca3bc86cd3965',
                  'n_spans': 2146,
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
        'counters': 'd1f02db4847d51e825473f3b37a5e400821c4426db93d80ad764adfdaf537f3d',
    },
    'managed': {
        'counters': '958caaefd20d983ebfd3d4de44cb2abfa03f641f05c52fa20431ce86ee7d189b',
    },
    'finite_speed': {
        'counters': '907b1dc6faa719d49fcf6a8d5a0e96eff60266002d91d6f591f9127c06842681',
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
