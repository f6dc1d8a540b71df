"""Unit tests for the segmented append-only event log (DESIGN §11).

Covers offset assignment, idempotent appends, time anchoring
(ISO-8601 <-> simulated seconds), offset/timestamp seeks, segment-granular
truncation, watermarks, and the segment-file round-trip."""

import os

import pytest

from repro.events.base import PropertyEvent
from repro.events.serialization import Envelope
from repro.log import EPOCH_ISO, EventLog, format_point, parse_point
from repro.overlay.messages import Publish


def envelope(seq, publisher="p", **metadata):
    metadata.setdefault("class", "Quote")
    metadata.setdefault("seq", seq)
    return Envelope(
        metadata=PropertyEvent(metadata),
        payload=f"payload-{publisher}-{seq}".encode(),
        published_at=float(seq),
        event_id=(publisher, seq),
    )


def publish(seq, publisher="p", offset=None, **metadata):
    return Publish(envelope(seq, publisher, **metadata), offset)


def fill(log, count, publisher="p", start=0, dt=1.0):
    for seq in range(start, start + count):
        log.append(publish(seq, publisher), time=seq * dt)


# ----------------------------------------------------------------------
# Time points
# ----------------------------------------------------------------------


def test_parse_point_passthrough_and_iso():
    assert parse_point(12.5) == 12.5
    assert parse_point(3) == 3.0
    assert parse_point(EPOCH_ISO) == 0.0
    assert parse_point("2002-01-01T00:01:00+00:00") == 60.0
    assert parse_point("2002-01-01T00:01:00Z") == 60.0
    # Naive timestamps are taken as UTC.
    assert parse_point("2002-01-01T01:00:00") == 3600.0


def test_format_point_round_trips():
    for t in (0.0, 1.0, 61.25, 86400.0):
        assert parse_point(format_point(t)) == t


def test_parse_point_rejects_non_points():
    with pytest.raises(TypeError):
        parse_point(None)
    with pytest.raises(TypeError):
        parse_point(True)


# ----------------------------------------------------------------------
# Appending
# ----------------------------------------------------------------------


def test_offsets_are_dense_and_segments_roll():
    log = EventLog(segment_size=4)
    fill(log, 10)
    assert log.next_offset == 10
    assert [r.offset for r in log] == list(range(10))
    assert log.segments() == [(0, 4), (4, 4), (8, 2)]


def test_append_is_idempotent_on_event_id():
    log = EventLog(segment_size=4)
    first = log.append(publish(0), time=0.0)
    again = log.append(publish(0), time=5.0)
    assert again is first
    assert log.next_offset == 1
    assert log.duplicates_skipped == 1


def test_append_rejects_time_regression():
    log = EventLog()
    log.append(publish(0), time=5.0)
    with pytest.raises(ValueError):
        log.append(publish(1), time=4.0)


def test_max_source_offset_tracks_highest_root_offset():
    log = EventLog()
    assert log.max_source_offset is None
    log.append(publish(0, offset=7), time=0.0)
    log.append(publish(1, offset=3), time=1.0)
    assert log.max_source_offset == 7


def test_watermarks_per_publisher():
    log = EventLog()
    log.append(publish(0, "a"), time=0.0)
    log.append(publish(2, "a"), time=1.0)
    log.append(publish(5, "b"), time=2.0)
    assert log.watermarks() == {"a": 2, "b": 5}


# ----------------------------------------------------------------------
# Seeking
# ----------------------------------------------------------------------


def test_record_at_and_read_from():
    log = EventLog(segment_size=3)
    fill(log, 8)
    assert log.record_at(0).event_id == ("p", 0)
    assert log.record_at(7).event_id == ("p", 7)
    assert log.record_at(8) is None
    assert log.record_at(-1) is None
    assert [r.offset for r in log.read_from(5)] == [5, 6, 7]
    assert [r.offset for r in log.read_from(0)] == list(range(8))
    assert list(log.read_from(99)) == []


def test_offset_for_time_bisects():
    log = EventLog(segment_size=3)
    fill(log, 8, dt=2.0)  # times 0, 2, 4, ..., 14
    assert log.offset_for_time(0.0) == 0
    assert log.offset_for_time(4.0) == 2
    assert log.offset_for_time(5.0) == 3  # between records -> next one
    assert log.offset_for_time(14.0) == 7
    assert log.offset_for_time(15.0) == 8  # past the tail -> next_offset
    assert log.offset_for_time(format_point(6.0)) == 3


def test_seen():
    log = EventLog()
    log.append(publish(0), time=0.0)
    assert log.seen(("p", 0))
    assert not log.seen(("p", 1))


# ----------------------------------------------------------------------
# Truncation
# ----------------------------------------------------------------------


def test_truncate_before_is_segment_granular():
    log = EventLog(segment_size=4)
    fill(log, 10)
    # Offset 5 is mid-segment: only the first whole segment goes.
    assert log.truncate_before(5) == 4
    assert log.start_offset == 4
    assert log.next_offset == 10
    assert log.record_at(3) is None
    assert log.record_at(4).offset == 4
    # Watermarks never retreat across truncation.
    assert log.watermarks() == {"p": 9}
    # Exactly on a boundary drops everything below it.
    assert log.truncate_before(8) == 4
    assert log.start_offset == 8


def test_truncated_ids_forgotten_but_offsets_stable():
    log = EventLog(segment_size=2)
    fill(log, 4)
    log.truncate_before(2)
    assert not log.seen(("p", 0))
    # Re-presenting a truncated event appends afresh at a *new* offset
    # (the log never reuses offsets).
    record = log.append(publish(0), time=10.0)
    assert record.offset == 4


# ----------------------------------------------------------------------
# File persistence
# ----------------------------------------------------------------------


def test_segment_files_round_trip(tmp_path):
    directory = str(tmp_path / "segments")
    log = EventLog("root", segment_size=3, directory=directory)
    fill(log, 7)
    log.append(
        Publish(
            Envelope(
                metadata=PropertyEvent({"class": "Quote", "unicode": "süb"}),
                payload=b"\x00\xff binary",
                published_at=None,
                event_id=("q", 0),
            ),
            42,
        ),
        time=7.0,
    )
    log.close()
    assert sorted(os.listdir(directory)) == [
        "root-00000000.seg", "root-00000003.seg", "root-00000006.seg",
    ]  # fmt: skip

    loaded = EventLog.load("root", directory, segment_size=3)
    assert list(loaded) == list(log)
    assert loaded.next_offset == log.next_offset
    assert loaded.segments() == log.segments()
    assert loaded.watermarks() == log.watermarks()
    assert loaded.max_source_offset == 42
