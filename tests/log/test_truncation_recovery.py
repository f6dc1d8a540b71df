"""Crash-torn tails and damaged segment files (DESIGN §11).

A process killed mid-append leaves the last entry of the tail segment
file cut short.  ``EventLog.load`` discards that one torn entry
(counting it in ``truncated_records_discarded``) and, with
``reopen=True``, cuts it off the file so the restarted broker appends
after the last whole entry.  Anything else that is not the log as
written — a failed checksum, a flipped length, a missing segment file,
a torn entry anywhere but at the very end — raises ``ValueError``.
"""

import os
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.events.base import PropertyEvent
from repro.events.serialization import Envelope
from repro.log import EventLog
from repro.overlay.messages import Publish

#: An entry's fixed head as the module documents it, and the byte
#: offset of its length field (after offset, time and flags).
HEAD = struct.Struct("!qdBII")
BODY_AT = HEAD.size + 4
LENGTH_AT = 8 + 8 + 1


def envelope(seq, publisher="p"):
    return Envelope(
        metadata=PropertyEvent({"class": "Quote", "seq": seq}),
        payload=f"payload-{seq}".encode(),
        published_at=float(seq),
        event_id=(publisher, seq),
    )


def write_log(directory, count, segment_size=4):
    log = EventLog("node", segment_size=segment_size, directory=directory)
    for seq in range(count):
        log.append(Publish(envelope(seq)), time=float(seq))
    log.close()


def tail_file(directory):
    return os.path.join(directory, sorted(os.listdir(directory))[-1])


def read(path):
    with open(path, "rb") as file:
        return file.read()


def write(path, data):
    with open(path, "wb") as file:
        file.write(data)


def entry_spans(data):
    """``(start, end)`` of every entry in a whole segment file."""
    spans, position = [], 0
    while position < len(data):
        length = HEAD.unpack_from(data, position)[3]
        spans.append((position, position + BODY_AT + length))
        position = spans[-1][1]
    assert position == len(data)
    return spans


class TestTruncatedTail:
    def test_clean_load_reports_zero_discarded(self, tmp_path):
        directory = str(tmp_path)
        write_log(directory, 6)
        loaded = EventLog.load("node", directory, segment_size=4)
        assert len(loaded) == 6
        assert loaded.truncated_records_discarded == 0

    def test_half_written_final_line_is_discarded(self, tmp_path):
        directory = str(tmp_path)
        write_log(directory, 6)
        path = tail_file(directory)
        data = read(path)
        start, end = entry_spans(data)[-1]
        # Chop the last entry mid-body, the shape a crash leaves behind.
        write(path, data[: (start + end) // 2])

        loaded = EventLog.load("node", directory, segment_size=4)
        assert len(loaded) == 5
        assert loaded.truncated_records_discarded == 1
        assert [r.offset for r in loaded] == list(range(5))
        # Without reopen the file is read, never written.
        assert len(read(path)) == (start + end) // 2

    def test_garbage_final_line_is_discarded(self, tmp_path):
        """Bytes too few to be an entry's head are a torn head."""
        directory = str(tmp_path)
        write_log(directory, 3, segment_size=8)
        with open(tail_file(directory), "ab") as file:
            file.write(b'{"offset": 99, "nonsense')
        loaded = EventLog.load("node", directory, segment_size=8)
        assert len(loaded) == 3
        assert loaded.truncated_records_discarded == 1

    def test_whole_garbage_after_the_last_entry_raises(self, tmp_path):
        """A head's worth of bytes that fail the head checksum are not
        what a crash leaves: a torn write is a prefix of a good one."""
        directory = str(tmp_path)
        write_log(directory, 3, segment_size=8)
        with open(tail_file(directory), "ab") as file:
            file.write(b"\x00" * BODY_AT)
        with pytest.raises(ValueError, match="corrupt entry"):
            EventLog.load("node", directory, segment_size=8)

    def test_corruption_before_the_tail_still_raises(self, tmp_path):
        directory = str(tmp_path)
        write_log(directory, 6)  # two segments: 4 + 2 records
        files = sorted(os.listdir(directory))
        assert len(files) == 2
        first = os.path.join(directory, files[0])
        data = bytearray(read(first))
        start, end = entry_spans(bytes(data))[1]
        data[end - 1] ^= 0x01  # one bit of a payload no broker opens
        write(first, bytes(data))
        with pytest.raises(ValueError, match="corrupt entry"):
            EventLog.load("node", directory, segment_size=4)

    def test_truncated_nonfinal_line_of_final_file_raises(self, tmp_path):
        directory = str(tmp_path)
        write_log(directory, 3, segment_size=8)
        path = tail_file(directory)
        data = read(path)
        (start, end), (following, _), _ = entry_spans(data)
        write(path, data[: start + 10] + data[following:])
        with pytest.raises(ValueError, match="corrupt entry"):
            EventLog.load("node", directory, segment_size=8)

    def test_torn_entry_in_a_file_that_is_not_the_last_raises(self, tmp_path):
        directory = str(tmp_path)
        write_log(directory, 6)
        first = os.path.join(directory, sorted(os.listdir(directory))[0])
        write(first, read(first)[:-3])
        with pytest.raises(ValueError, match="ends inside an entry"):
            EventLog.load("node", directory, segment_size=4)

    def test_missing_middle_segment_raises(self, tmp_path):
        """The stored offsets say what the file names only suggest: the
        survivors are not renumbered over the hole."""
        directory = str(tmp_path)
        write_log(directory, 10)  # 4 + 4 + 2
        os.remove(os.path.join(directory, sorted(os.listdir(directory))[1]))
        with pytest.raises(ValueError, match="stored offset 8 where 4 is next"):
            EventLog.load("node", directory, segment_size=4)


class TestReopenForAppend:
    def test_reopened_log_accepts_appends(self, tmp_path):
        directory = str(tmp_path)
        write_log(directory, 5)
        loaded = EventLog.load("node", directory, segment_size=4, reopen=True)
        loaded.append(Publish(envelope(5)), time=5.0)
        loaded.close()
        reread = EventLog.load("node", directory, segment_size=4)
        assert len(reread) == 6
        assert [r.offset for r in reread] == list(range(6))

    def test_reopen_after_truncation_rewrites_clean_tail(self, tmp_path):
        directory = str(tmp_path)
        write_log(directory, 6)
        path = tail_file(directory)
        data = read(path)
        start, _ = entry_spans(data)[-1]
        write(path, data[: start + 20])

        loaded = EventLog.load("node", directory, segment_size=4, reopen=True)
        assert loaded.truncated_records_discarded == 1
        # The torn entry was cut off the file; the whole ones were not
        # rewritten.
        assert read(path) == data[:start]
        loaded.append(Publish(envelope(50)), time=50.0)
        loaded.close()
        reread = EventLog.load("node", directory, segment_size=4)
        assert reread.truncated_records_discarded == 0
        assert len(reread) == 6

    def test_reopen_over_a_tail_file_holding_only_a_torn_entry(self, tmp_path):
        directory = str(tmp_path)
        write_log(directory, 5)  # 4 + 1: the tail file holds one entry
        path = tail_file(directory)
        write(path, read(path)[:7])
        loaded = EventLog.load("node", directory, segment_size=4, reopen=True)
        assert (len(loaded), loaded.truncated_records_discarded) == (4, 1)
        loaded.append(Publish(envelope(4)), time=4.0)
        loaded.close()
        reread = EventLog.load("node", directory, segment_size=4)
        assert [r.offset for r in reread] == list(range(5))
        assert reread.truncated_records_discarded == 0


@settings(max_examples=25, deadline=None)
@given(
    count=st.integers(min_value=1, max_value=9),
    segment_size=st.integers(min_value=1, max_value=4),
)
def test_a_cut_anywhere_in_the_last_entry_loses_exactly_that_entry(
    tmp_path_factory, count, segment_size
):
    """Every byte position of the last entry, not a sample of them."""
    directory = str(tmp_path_factory.mktemp("cut"))
    write_log(directory, count, segment_size)
    path = tail_file(directory)
    whole = read(path)
    start, end = entry_spans(whole)[-1]
    for cut in range(start + 1, end):
        write(path, whole[:cut])
        loaded = EventLog.load("node", directory, segment_size, reopen=True)
        assert loaded.truncated_records_discarded == 1, cut
        assert [r.offset for r in loaded] == list(range(count - 1)), cut
        loaded.append(Publish(envelope(count - 1)), time=float(count))
        loaded.close()
        reread = EventLog.load("node", directory, segment_size)
        assert reread.truncated_records_discarded == 0, cut
        assert [r.event_id for r in reread] == [("p", s) for s in range(count)]
        assert read(path)[:start] == whole[:start], cut


@settings(max_examples=60, deadline=None)
@given(
    count=st.integers(min_value=2, max_value=9),
    segment_size=st.integers(min_value=1, max_value=4),
    data=st.data(),
)
def test_a_flipped_length_bit_raises_wherever_it_is(
    tmp_path_factory, count, segment_size, data
):
    """Including in the last file, where a length grown past the end of
    the file would otherwise read as a torn tail and silently drop
    every entry after it."""
    directory = str(tmp_path_factory.mktemp("flip"))
    write_log(directory, count, segment_size)
    files = sorted(os.listdir(directory))
    path = os.path.join(directory, data.draw(st.sampled_from(files)))
    content = bytearray(read(path))
    start, _ = data.draw(st.sampled_from(entry_spans(bytes(content))))
    bit = data.draw(st.integers(min_value=0, max_value=31))
    content[start + LENGTH_AT + bit // 8] ^= 1 << (bit % 8)
    write(path, bytes(content))
    with pytest.raises(ValueError, match="corrupt entry"):
        EventLog.load("node", directory, segment_size)
