"""Byte tables are unchanged by construction — and by measurement.

The reflection plan and the remembered records are pure optimisations:
for one seed, ``run_bibliographic`` must book the same bytes on every
link and emit the same spans as recorded.  Checked two ways: against
numbers recorded with the script below, and against the size model
stated the slow way (every data message through ``encode_frame``) and
the reference reflection swapped in (which holds on any interpreter).
"""

import functools
import hashlib
import itertools

import repro.core.subscription as subscription_module
import repro.events.typed as typed
import repro.experiments.common as common
from repro.core.engine import MultiStageEventSystem
from repro.experiments.common import ScenarioConfig, run_bibliographic
from repro.sim.network import Network
from tests.events.reflection_reference import reference_reflect_attributes
from tests.overlay.test_wire_size import reference_size

CONFIG = dict(seed=3, n_subscribers=60, n_events=120, stage_sizes=(6, 3, 1))

#: Recorded one fresh interpreter per run, from ``measure()`` below with
#: the unpatched ``MultiStageEventSystem`` given ``tracing=True``.
PARENT = {
    "total_bytes": 167624,
    "total_messages": 640,
    "links": "539f565d1d1aa010de214389af8b00908b12d6f73ee64ae73c8586362e888abb",
    "spans": "20d5d5f5067f82a7e3c9f9aabf100455d291bfefce5ed1842aa4415e73100458",
    "n_spans": 756,
}
#: ``spans``/``n_spans`` were re-recorded twice since: when the default
#: became ``"compiled"`` without the routing cache (DESIGN §12), and when
#: ``hop`` spans lost the two details that depended on the engine
#: (``cache``, ``probed``) and the control-plane records of the retired
#: ``TraceRecorder`` joined the dump as spans (197 of them here:
#: ``advertise``, ``route-covering``, ``subscriber-insert``, ``joined``;
#: CHANGES.md, PR 19, has the field-level diff).  ``total_bytes`` and
#: ``links`` were re-recorded twice, with messages per link unmoved both
#: times: when the size model became "a data message costs what its
#: frame costs on a socket" (DESIGN §16: 165 683 bytes under the
#: ``repr`` model, 201 874 after; CHANGES.md, PR 24), and when control
#: messages came to be priced from their fields instead of their
#: ``repr`` (DESIGN §16: data-kind bytes unmoved, every control kind
#: cheaper; the per-kind diff is in CHANGES.md, PR 32).


def measure(monkeypatch, **scenario):
    """One traced same-seed run, summarised as the parent's record was."""
    # Subscription ids are drawn from a process-wide counter: start it
    # where a fresh interpreter would.
    monkeypatch.setattr(subscription_module, "_subscription_ids", itertools.count(1))
    monkeypatch.setattr(
        common,
        "MultiStageEventSystem",
        functools.partial(MultiStageEventSystem, tracing=True),
    )
    system = run_bibliographic(ScenarioConfig(**CONFIG, **scenario)).system
    links = sorted(
        (link.src.name, link.dst.name, link.messages, link.bytes)
        for link in system.network._links.values()
    )
    dump = system.tracer.dump()
    return {
        "total_bytes": system.network.stats.total_bytes,
        "total_messages": system.network.stats.total_messages,
        "links": hashlib.sha256(repr(links).encode()).hexdigest(),
        "spans": hashlib.sha256(dump).hexdigest(),
        "n_spans": len(system.tracer),
    }


def test_bibliographic_bytes_and_spans_equal_the_parent_commit(monkeypatch):
    assert measure(monkeypatch) == PARENT


def test_engine_and_cache_move_only_the_spans_hash(monkeypatch):
    """Not even that one any more: no span detail depends on the engine,
    so the old default records the very dump the default does."""
    assert measure(monkeypatch, engine="index", cache=True) == PARENT


def test_bibliographic_bytes_and_spans_equal_the_reference_model(monkeypatch):
    optimised = measure(monkeypatch)

    class ReferenceNetwork(Network):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, sizer=reference_size, **kwargs)

    monkeypatch.setattr("repro.core.engine.Network", ReferenceNetwork)
    monkeypatch.setattr(typed, "reflect_attributes", reference_reflect_attributes)
    assert measure(monkeypatch) == optimised
