"""What one publisher may put in an event, a logging broker survives.

The on-disk log used to re-render each event as a JSON line: a
``bytes`` attribute raised ``TypeError`` out of ``EventLog.append`` —
out of ``BrokerNode`` on any broker with a log directory, after the
record had entered the in-memory segment and before the offset moved —
and a tuple came back from crash recovery as an unhashable ``list``.
The log stores the codec's record of the event (DESIGN §11), so it
carries exactly what a socket carries and gives it back type for type.
"""

import pytest

from repro.core.engine import MultiStageEventSystem
from repro.events.base import PropertyEvent
from repro.events.serialization import Envelope
from repro.log import EventLog, LogConfig
from repro.overlay.messages import Publish
from tests.runtime.test_frame_codec import canon

AWKWARD = {
    "blob": b"\x00\xff raw",
    "pair": (1, "a"),
    "nan": float("nan"),
    "flag": True,
    "one": 1,
    "negative_zero": -0.0,
    "big": 2**70,
    "lone": "\ud800",
}


def events():
    """One event per awkward value, then one holding all of them."""
    for name, value in AWKWARD.items():
        yield PropertyEvent({"class": "Odd", "kind": "odd", name: value})
    yield PropertyEvent({"class": "Odd", "kind": "odd", **AWKWARD})


def records(log):
    return [canon((r.offset, r.time, r.source_offset, r.envelope)) for r in log]


def test_awkward_values_through_logging_brokers_and_a_restart(tmp_path):
    system = MultiStageEventSystem(
        stage_sizes=(2, 1), seed=5, ttl=1.0, log=LogConfig(directory=str(tmp_path))
    )
    system.advertise("Odd", schema=("kind",))
    system.drain()
    # On every runtime a crash keeps a log directory's files only.
    leaf = system.hierarchy.stage1_nodes()[0]
    got = []
    subscriber = system.create_subscriber("sub")
    system.subscribe(
        subscriber,
        'kind = "odd"',
        event_class="Odd",
        handler=lambda event, meta, sub: got.append(event),
        at_node=leaf,
    )
    system.drain()

    publisher = system.create_publisher("feed")
    sent = list(events())
    for event in sent:
        publisher.publish(event)
    system.drain()  # raises what any broker's receive or drain raised

    assert [canon(event) for event in got] == [canon(event) for event in sent]
    for node in (system.root, leaf):
        assert len(node.log) == len(sent)
        assert [canon(r.envelope.metadata) for r in node.log] == [
            canon(event) for event in sent
        ]

    before = records(leaf.log)
    system.kill(leaf)
    assert leaf.log is None
    system.restore(leaf)
    assert leaf.log.truncated_records_discarded == 0
    assert records(leaf.log) == before
    # A tuple came back a tuple: the recovered log can still be asked.
    assert {hash(r.envelope.metadata.get("pair")) for r in leaf.log} == {
        hash(None), hash((1, "a"))
    }  # fmt: skip

    # The reopened log takes what the recovery replay and a live publish
    # bring, and the broker delivers again once the subscriber's renewal
    # has restored its filter.
    system.start_maintenance()
    system.run_for(3.0)
    system.stop_maintenance()
    publisher.publish(PropertyEvent({"class": "Odd", "kind": "odd", "after": b"\x01"}))
    system.drain()
    assert len(got) == len(sent) + 1
    assert len(leaf.log) == len(sent) + 1
    leaf.log.close()
    assert len(EventLog.load(leaf.name, str(tmp_path))) == len(sent) + 1


def test_an_append_that_cannot_be_serialised_changes_nothing(tmp_path):
    log = EventLog("n", segment_size=2, directory=str(tmp_path))

    def publish(seq, **extra):
        metadata = PropertyEvent({"class": "E", "seq": seq, **extra})
        return Publish(Envelope(metadata, b"payload", float(seq), ("p", seq)), seq)

    for seq in range(3):
        log.append(publish(seq), time=float(seq))
    state = (len(log), log.next_offset, log.segments(), log.watermarks(), list(log))
    on_disk = {path.name: path.read_bytes() for path in tmp_path.iterdir()}

    unpicklable = publish(3, callback=lambda: None)
    assert unpicklable.record() is None
    with pytest.raises(Exception, match="pickle"):
        log.append(unpicklable, time=3.0)

    assert (
        len(log), log.next_offset, log.segments(), log.watermarks(), list(log)
    ) == state  # fmt: skip
    assert not log.seen(("p", 3))
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == on_disk
    # The next good event takes the offset the failed one did not.
    assert log.append(publish(3), time=3.0).offset == 3
    log.close()
    assert [r.offset for r in EventLog.load("n", str(tmp_path), 2)] == [0, 1, 2, 3]
