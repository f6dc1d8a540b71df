"""One broker pipeline, same schedules as the two it replaced.

``test_byte_identity`` pins bytes and spans of the default run only.
The admit→match→forward merge (DESIGN §10) also has to leave the
unbatched, the managed and the finite-speed schedules alone, so each is
pinned here as well: kernel steps, every broker's counters, per-link
bytes and the span dump, for one seed.  ``GOLDEN`` was recorded at the
parent commit ``44e1c45`` with :func:`measure` below, one fresh
interpreter per case.

The default engine has since become ``"compiled"`` without the routing
cache (DESIGN §12).  That moved two of the fourteen recorded fields and
nothing else: ``counters`` (``filter_evaluations`` counts the compiled
engine's attribute probes, not the index's constraint harvests;
``compile_rebuilds`` is no longer 0; the three ``cache_*`` counters are)
and ``spans`` (every ``hop`` span's ``cache`` detail reads ``'off'``
where it read ``'hit'``/``'miss'``, and its ``probed`` count follows
``filter_evaluations``).  Those two hashes were re-recorded, once, with
the same :func:`measure`; the ones recorded at ``44e1c45`` are kept as
``INDEX_WITH_CACHE`` and still hold for a system that asks for the old
default, which is what shows the schedule did not move.
"""

import hashlib
import itertools

import pytest

import repro.core.subscription as subscription_module
from repro.core.engine import MultiStageEventSystem
from repro.flow import FlowConfig
from repro.log.config import LogConfig
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
    "unbatched": dict(batch=False),
    "managed": dict(
        flow=MANAGED_FLOW, service_rate=2000.0, service_batch=8, log=LogConfig()
    ),
    "finite_speed": dict(service_rate=2000.0, service_batch=8),
}

GOLDEN = {'default': {'processed_events': 2666,
             'counters': '2e0b7ef742a027d30827a3f5e7a8c800edd8133ace45e54b0a9aced43d78a115',
             'total_bytes': 444660,
             'links': '85602cd703ab3f9511504874eee16f6102baafb049b95df22a36b98e8a559111',
             'spans': 'e8499633c92876cc0d00d4a6b36b61b3a3b79fe5d99d7227b42cde472956583a',
             'n_spans': 2024,
             'delivered': 617,
             'sheds': [],
             'credit_gap_grants': 0,
             'overload_transitions': 0,
             'events_logged': 0,
             'replay_events_sent': 0,
             'replay_dupes_discarded': 0,
             'drain_resumes': 0},
 'unbatched': {'processed_events': 3108,
               'counters': 'f8b9cb14f7d69d062bdb09d40a56533b1232a7453170616cab5b46c1df3cb8ce',
               'total_bytes': 429548,
               'links': '8a93c0c3ae1efbbe015ac4e8d7ae9dee1e9142ab25a738796fd65636fd8b8a4e',
               'spans': '0229cb6b4d28eb257d5165b32a257b560eae7ed359079e83d6e73a59dce2d87a',
               'n_spans': 2003,
               'delivered': 605,
               'sheds': [],
               'credit_gap_grants': 0,
               'overload_transitions': 0,
               'events_logged': 0,
               'replay_events_sent': 0,
               'replay_dupes_discarded': 0,
               'drain_resumes': 0},
 'managed': {'processed_events': 3961,
             'counters': '432bb4122d5f0d19f1b381d57352a11e3a8cf994bd2da135211476f47a4c9aa5',
             'total_bytes': 453470,
             'links': 'db520fe7352d75e66dbec5688b474c9146d6ddc44a3b61b1766f51432b6666d9',
             'spans': '2b6ab0d7e077650a68260259e26ee8faf23f70dc22aff63015d66db717e4d21b',
             'n_spans': 2302,
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
                  'counters': 'c817dcbdfde6fc505d63c69ca666c065e831315c6cbdd7c65f27a32b4337b3dd',
                  'total_bytes': 445854,
                  'links': 'e9b39ede4daca42de693d7302226dd410f969ddc7ab9856ecf4720eb7196a522',
                  'spans': '136db9c311e4fb625b2bcbc7e458c63b55b02afed2099a967056a8e800839c63',
                  'n_spans': 2031,
                  'delivered': 628,
                  'sheds': [],
                  'credit_gap_grants': 0,
                  'overload_transitions': 0,
                  'events_logged': 0,
                  'replay_events_sent': 0,
                  'replay_dupes_discarded': 0,
                  'drain_resumes': 0}}


#: The two engine-dependent fields as recorded at ``44e1c45``, when
#: ``engine="index", cache=True`` was what a system got by default.
INDEX_WITH_CACHE = {
    'default': {
        'counters': 'ca8c08929d192ec85f4914227437ccfbcfa6b9675ba237f07a44234a28c3ce2f',
        'spans': '7e54ab6255341a6b78c0504e68b642489c71b5f4a2b9592bf19112b7fb5fce52',
    },
    'unbatched': {
        'counters': '79bf94ff8d38f858f935a12ea58118f3fc30f26894ee6b83001f5f21a6a959a7',
        'spans': 'aad68c05f145b85a699fd8644ec5ba52f2faed25513aff0025de76bed782eef5',
    },
    'managed': {
        'counters': '9565b1c73f5908d46d47ae8f80cd33a326c698857cf64bb076783eb96571cf0f',
        'spans': '8a51175bf3c15ac9812fb00f455a6791789894e18913b9e227c958fe76d7ea0d',
    },
    'finite_speed': {
        'counters': '92b62cd3bc74d9afa026aeba6e9e98cec6a2425c63a066d543395a063ef75295',
        'spans': '535ecd4f66dd18c0fc6211c7ca07f249f5fdba10c96517c7c488430b98c21a3e',
    },
}

def measure(monkeypatch, case, **options):
    """One traced same-seed run of ``case``, summarised."""
    # Subscription ids come from a process-wide counter and are rendered
    # into control messages: start it where a fresh interpreter would.
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
    """The other twelve fields — kernel steps, bytes, per-link traffic,
    span count, deliveries, sheds — are one record for both engines."""
    assert set(INDEX_WITH_CACHE[case]) == {"counters", "spans"}
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
