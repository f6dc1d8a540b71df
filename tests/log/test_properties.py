"""Property-based tests (hypothesis) for log segment/offset arithmetic.

Pin the algebra the replayer and recovery lean on:

- append -> seek -> replay round-trips: reading from any offset yields
  exactly the records at and above it, regardless of segment size;
- ``offset_for_time`` (segment-tail bisection + in-segment bisection)
  agrees with a naive linear scan for arbitrary non-decreasing times;
- ``truncate_before`` lands on segment boundaries, never splits a
  segment, and preserves every surviving record and offset;
- append -> close -> ``load`` is the identity, value for value and type
  for type, over the events the frame codec's tests generate (the log
  stores the codec's record of an event).
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.events.base import PropertyEvent
from repro.events.serialization import Envelope
from repro.log import EventLog
from repro.overlay.messages import Publish
from tests.runtime.test_frame_codec import (
    canon,
    odd_values,
    plain_values,
    publishes_of,
)

#: (segment size, non-decreasing append times) — the shape of any log.
log_shapes = st.tuples(
    st.integers(min_value=1, max_value=7),
    st.lists(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        min_size=0,
        max_size=40,
    ).map(sorted),
)


def build(segment_size, times):
    log = EventLog(segment_size=segment_size)
    for seq, time in enumerate(times):
        log.append(
            Publish(
                Envelope(
                    metadata=PropertyEvent({"class": "E", "seq": seq}),
                    payload=b"",
                    published_at=time,
                    event_id=("p", seq),
                )
            ),
            time=time,
        )
    return log


@settings(max_examples=150, deadline=None)
@given(log_shapes, st.integers(min_value=-2, max_value=45))
def test_append_seek_replay_round_trip(shape, offset):
    segment_size, times = shape
    log = build(segment_size, times)
    replayed = [r.offset for r in log.read_from(offset)]
    expected = [i for i in range(len(times)) if i >= offset]
    assert replayed == expected
    # Point lookups agree with the sweep.
    for o in range(-1, len(times) + 1):
        record = log.record_at(o)
        if 0 <= o < len(times):
            assert record is not None and record.offset == o
            assert record.event_id == ("p", o)
        else:
            assert record is None


@settings(max_examples=150, deadline=None)
@given(log_shapes, st.floats(min_value=-1.0, max_value=101.0, allow_nan=False))
def test_offset_for_time_matches_linear_scan(shape, point):
    segment_size, times = shape
    log = build(segment_size, times)
    naive = next((i for i, t in enumerate(times) if t >= point), len(times))
    assert log.offset_for_time(point) == naive


@settings(max_examples=150, deadline=None)
@given(log_shapes, st.integers(min_value=0, max_value=45))
def test_truncate_is_segment_granular_and_lossless_above(shape, cut):
    segment_size, times = shape
    log = build(segment_size, times)
    before = {r.offset: r for r in log}
    segments_before = log.segments()
    dropped = log.truncate_before(cut)

    # Survivors start at a segment boundary at or below the cut (an
    # emptied log's start_offset falls back to next_offset)...
    if log.segments():
        assert log.start_offset % segment_size == 0
        assert log.start_offset <= cut
    else:
        assert log.start_offset == log.next_offset == len(times)
    # ...no surviving segment was split...
    assert log.segments() == segments_before[len(segments_before) - len(log.segments()):]
    # ...every record at/above the boundary survives verbatim.
    survivors = list(log)
    assert dropped + len(survivors) == len(times)
    for record in survivors:
        assert record is before[record.offset]
    assert [r.offset for r in survivors] == list(
        range(log.start_offset, len(times))
    )
    # Seeks below the boundary clamp into the retained range.
    if survivors:
        assert log.record_at(log.start_offset - 1) is None


@settings(max_examples=100, deadline=None)
@given(log_shapes)
def test_segments_partition_the_offset_space(shape):
    segment_size, times = shape
    log = build(segment_size, times)
    expected_base = 0
    for base, count in log.segments():
        assert base == expected_base
        assert 1 <= count <= segment_size
        expected_base = base + count
    assert expected_base == log.next_offset


#: Events with an id the log can key on; values of every plain type and
#: of types only the pickled fallback carries; any root offset.
logged_publishes = publishes_of(
    st.one_of(plain_values, odd_values),
    st.one_of(st.none(), st.tuples(st.text(max_size=4), st.integers(0, 1 << 40))),
    st.one_of(st.none(), st.floats(), st.sampled_from([-0.0, float("nan")])),
    st.one_of(st.none(), st.integers(-1, 1 << 40), st.just(2**70)),
)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.lists(
        st.tuples(logged_publishes, st.floats(min_value=0.0, max_value=1e9)),
        max_size=10,
    ),
    st.booleans(),
)
def test_append_close_load_is_the_identity(
    tmp_path_factory, segment_size, appends, remembered
):
    directory = str(tmp_path_factory.mktemp("identity"))
    log = EventLog("n", segment_size=segment_size, directory=directory)
    for publish, time in sorted(appends, key=lambda pair: pair[1]):
        if remembered:  # as at a broker the event reached over a link
            publish.record()
        log.append(publish, time)
    log.close()
    for reopen in (False, True):
        loaded = EventLog.load("n", directory, segment_size, reopen=reopen)
        loaded.close()
        assert loaded.truncated_records_discarded == 0
        assert loaded.segments() == log.segments()
        assert loaded.watermarks() == log.watermarks()
        assert loaded.max_source_offset == log.max_source_offset
        assert [
            canon((r.offset, r.time, r.source_offset, r.envelope)) for r in loaded
        ] == [canon((r.offset, r.time, r.source_offset, r.envelope)) for r in log]
