"""Append-only per-broker publish log with offset and timestamp seeks.

Every broker built with a :class:`LogConfig` appends each event it
processes to an :class:`EventLog`: a sequence of fixed-size *segments*,
each holding ``segment_size`` consecutive records.  Offsets are dense
integers assigned at append time; the root's log — publishers attach to
the root, so the root processes every admitted event — is the system's
complete publish history and the ground truth the audit verifier
(:mod:`repro.log.audit`) checks delivery traces against.

Two persistence modes coexist:

- **in-sim** (default): records live in memory only, fsync-free — the
  simulator's processes all share one address space and "durability"
  means surviving :meth:`~repro.overlay.node.BrokerNode.crash`, which
  wipes soft state but never the log;
- **real files** (``directory`` set): each segment is additionally
  written as a file of binary entries (``<name>-<base offset>.seg``) —
  what a broker *process* restarts from; :meth:`EventLog.load` reads a
  directory back into memory.  An entry is the event as the socket
  runtimes already carry it (:meth:`~repro.overlay.messages.Publish.
  record`) behind a fixed head, so the log serialises nothing a frame
  has not serialised and opens nothing a frame does not open (DESIGN
  §11).

Timestamps: the simulator clock is seconds since an arbitrary zero, so
ISO-8601 replay points are anchored at a fixed epoch
(:data:`EPOCH_ISO` = simulated time ``0.0``) rather than any wall
clock — :func:`parse_point` maps either representation to simulated
seconds deterministically.
"""

import os
import pickle
import struct
import zlib
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from typing import TYPE_CHECKING, BinaryIO, Dict, Iterator, List, Optional, Tuple, Union

from repro.events.serialization import Envelope

if TYPE_CHECKING:  # pragma: no cover - repro.overlay imports this module
    from repro.overlay.messages import Publish

#: The ISO-8601 instant simulated time ``0.0`` maps to (UTC).  Chosen
#: fixed — never "now" — so same-seed runs serialize identical logs.
EPOCH_ISO = "2002-01-01T00:00:00+00:00"

_EPOCH = datetime(2002, 1, 1, tzinfo=timezone.utc)

TimePoint = Union[int, float, str]


def parse_point(value: TimePoint) -> float:
    """A replay point — simulated seconds, or an ISO-8601 timestamp
    anchored at :data:`EPOCH_ISO` — as simulated seconds."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    if isinstance(value, str):
        text = value.strip()
        if text.endswith(("Z", "z")):
            text = text[:-1] + "+00:00"
        moment = datetime.fromisoformat(text)
        if moment.tzinfo is None:
            moment = moment.replace(tzinfo=timezone.utc)
        return (moment - _EPOCH).total_seconds()
    raise TypeError(f"cannot interpret {value!r} as a time point")


def format_point(sim_time: float) -> str:
    """Simulated seconds rendered as the ISO-8601 instant they map to."""
    return (_EPOCH + timedelta(seconds=sim_time)).isoformat()


@dataclass(frozen=True)
class LogRecord:
    """One appended event: its log position, append time, and envelope.

    ``source_offset`` is the offset the *root* assigned the event (the
    root stamps it into the forwarded :class:`~repro.overlay.messages.
    Publish`); at the root itself ``source_offset == offset``.  A
    downstream broker's recovery replay is phrased in root offsets, so
    the log tracks the highest one seen (:attr:`EventLog.
    max_source_offset`) as its "last acked offset".
    """

    offset: int
    time: float
    envelope: Envelope
    source_offset: Optional[int] = None

    @property
    def event_id(self) -> Optional[tuple]:
        return self.envelope.event_id

    @property
    def event_class(self) -> Optional[str]:
        return self.envelope.event_class


# An on-disk entry:
#
#     8 bytes  local offset                         (signed, big-endian)
#     8 bytes  append time                          (IEEE double)
#     1 byte   flags
#     4+4      body length, CRC-32 of the body
#     4 bytes  CRC-32 of the 25 bytes above
#     ...      the body: the event's record, the root's offset in it
#
# The head has a CRC of its own so that a reader can trust the length
# before it has the body: an entry that runs past the end of the last
# file is a torn tail, never a damaged length.
_ENTRY = struct.Struct("!qdBII")
_ENTRY_CRC = struct.Struct("!I")
_BODY_AT = _ENTRY.size + _ENTRY_CRC.size
#: ``flags`` bit: ``Publish.record()`` cannot carry the event exactly;
#: the body is what a socket sends in its place, the event pickled whole.
_PICKLED = 1
_SUFFIX = ".seg"


def _entry(offset: int, time: float, publish: "Publish") -> bytes:
    """One on-disk entry; raises what serialising the event raises."""
    body, flags = publish.record(), 0
    if body is None:
        body, flags = publish.pickled(), _PICKLED
    head = _ENTRY.pack(offset, time, flags, len(body), zlib.crc32(body))
    return b"".join((head, _ENTRY_CRC.pack(zlib.crc32(head)), body))


def _read_entry(
    data: bytes, start: int, event_class: type
) -> Optional[Tuple[int, float, "Publish", int]]:
    """Parse the entry at ``data[start:]`` into ``(offset, time, event,
    position after it)``; ``None`` when ``data`` ends inside the entry.
    Raises ``ValueError`` on an entry that is whole and damaged.
    ``event_class`` is :class:`~repro.overlay.messages.Publish`, which
    this module cannot import while ``repro.overlay`` imports it."""
    body_at = start + _BODY_AT
    if body_at > len(data):
        return None
    head = data[start : start + _ENTRY.size]
    if zlib.crc32(head) != _ENTRY_CRC.unpack_from(data, start + _ENTRY.size)[0]:
        raise ValueError("entry head fails its checksum")
    offset, time, flags, length, body_crc = _ENTRY.unpack(head)
    end = body_at + length
    if end > len(data):
        return None
    if zlib.crc32(memoryview(data)[body_at:end]) != body_crc:
        raise ValueError("entry body fails its checksum")
    try:
        if flags & _PICKLED:
            publish, stop = pickle.loads(data[body_at:end]), end
        else:
            publish, stop = event_class.from_record(data, body_at)
    except Exception as exc:  # struct, pickle, a class this side lacks
        raise ValueError(f"undecodable entry body: {exc!r}") from exc
    if type(publish) is not event_class or stop != end:
        raise ValueError("entry body is not one event")
    return offset, time, publish, end


class _Segment:
    """``segment_size`` consecutive records starting at ``base_offset``."""

    __slots__ = ("base_offset", "records")

    def __init__(self, base_offset: int):
        self.base_offset = base_offset
        self.records: List[LogRecord] = []

    @property
    def last_offset(self) -> int:
        """Offset of the last held record (base - 1 when empty)."""
        return self.base_offset + len(self.records) - 1

    @property
    def last_time(self) -> float:
        return self.records[-1].time if self.records else float("-inf")


class EventLog:
    """A segmented, append-only, idempotent publish log.

    Appends are idempotent on ``event_id``: a wire-duplicated frame
    re-presents an already-logged event, and the log returns the original
    record instead of growing — the root's log stays an exactly-once
    ground truth even under duplication faults.  Append times must be
    non-decreasing (the simulator clock is), which is what makes
    :meth:`offset_for_time` a bisection instead of a scan.
    """

    def __init__(
        self,
        name: str = "log",
        segment_size: int = 256,
        directory: Optional[str] = None,
    ):
        if segment_size < 1:
            raise ValueError(f"segment_size must be >= 1, got {segment_size}")
        self.name = name
        self.segment_size = segment_size
        self.directory = directory
        self._segments: List[_Segment] = []
        #: The tail segment's file while it is open for append.
        self._file: Optional[BinaryIO] = None
        self._by_id: Dict[tuple, LogRecord] = {}
        self._next_offset = 0
        self._watermarks: Dict[str, int] = {}
        self._max_source_offset: Optional[int] = None
        #: Idempotent re-appends skipped (wire duplicates re-presented).
        self.duplicates_skipped = 0
        #: Partial trailing entries discarded by :meth:`load` (a crash
        #: mid-append leaves at most one).
        self.truncated_records_discarded = 0
        if directory is not None:
            os.makedirs(directory, exist_ok=True)

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------

    def append(self, publish: "Publish", time: float) -> LogRecord:
        """Append one event; idempotent on its ``event_id``.

        ``publish.offset`` is the offset the root gave the event
        (``None`` at the root itself), kept as ``source_offset``.
        Returns the (new or previously appended) record; compare
        :attr:`next_offset` around the call to tell the cases apart.
        With a directory the entry is serialised, then written, then
        booked: an append that raises has changed nothing.
        """
        envelope = publish.envelope
        eid = envelope.event_id
        if eid is not None:
            existing = self._by_id.get(eid)
            if existing is not None:
                self.duplicates_skipped += 1
                return existing
        if self._segments and time < self._segments[-1].last_time:
            raise ValueError(
                f"append time {time} precedes log tail "
                f"{self._segments[-1].last_time} (times must be monotone)"
            )
        record = LogRecord(self._next_offset, time, envelope, publish.offset)
        if self.directory is not None:
            entry = _entry(record.offset, time, publish)
            if self._tail_is_full():
                self.close()
                # Unbuffered: one write per entry, so a fail-stop
                # (SIGKILL) loses at most the entry being written, which
                # load() heals as a clean crash tail.
                self._file = open(self._segment_path(record.offset), "wb", buffering=0)
            if self._file is not None:
                self._file.write(entry)
        self._book(record)
        return record

    def _tail_is_full(self) -> bool:
        return (
            not self._segments
            or len(self._segments[-1].records) >= self.segment_size
        )

    def _book(self, record: LogRecord) -> None:
        """Take ``record`` (appended, or read back by :meth:`load`) into
        the in-memory segments and indexes."""
        if self._tail_is_full():
            self._segments.append(_Segment(record.offset))
        self._segments[-1].records.append(record)
        self._next_offset = record.offset + 1
        eid = record.envelope.event_id
        if eid is not None:
            self._by_id[eid] = record
            publisher, seq = eid
            known = self._watermarks.get(publisher)
            if known is None or seq > known:
                self._watermarks[publisher] = seq
        source_offset = record.source_offset
        if source_offset is not None and (
            self._max_source_offset is None
            or source_offset > self._max_source_offset
        ):
            self._max_source_offset = source_offset

    def _segment_path(self, base_offset: int) -> str:
        return os.path.join(
            self.directory, f"{self.name}-{base_offset:08d}{_SUFFIX}"
        )

    # ------------------------------------------------------------------
    # Reading / seeking
    # ------------------------------------------------------------------

    @property
    def next_offset(self) -> int:
        """The offset the next append will receive (== total ever appended)."""
        return self._next_offset

    @property
    def start_offset(self) -> int:
        """First retained offset (> 0 after :meth:`truncate_before`)."""
        return self._segments[0].base_offset if self._segments else self._next_offset

    @property
    def max_source_offset(self) -> Optional[int]:
        """Highest root-assigned offset seen — the "last acked offset" a
        restarted broker replays from."""
        return self._max_source_offset

    def __len__(self) -> int:
        return sum(len(segment.records) for segment in self._segments)

    def __iter__(self) -> Iterator[LogRecord]:
        for segment in self._segments:
            yield from segment.records

    def segments(self) -> List[Tuple[int, int]]:
        """``(base offset, record count)`` per retained segment."""
        return [(s.base_offset, len(s.records)) for s in self._segments]

    def record_at(self, offset: int) -> Optional[LogRecord]:
        """The record at ``offset`` (None when truncated or unwritten)."""
        segment = self._segment_holding(offset)
        if segment is None:
            return None
        return segment.records[offset - segment.base_offset]

    def _segment_holding(self, offset: int) -> Optional[_Segment]:
        if not self._segments or offset < 0:
            return None
        bases = [s.base_offset for s in self._segments]
        index = bisect_right(bases, offset) - 1
        if index < 0:
            return None
        segment = self._segments[index]
        if offset > segment.last_offset:
            return None
        return segment

    def read_from(self, offset: int) -> Iterator[LogRecord]:
        """Records with ``record.offset >= offset``, in offset order."""
        for segment in self._segments:
            if segment.last_offset < offset:
                continue
            start = max(0, offset - segment.base_offset)
            yield from segment.records[start:]

    def offset_for_time(self, point: TimePoint) -> int:
        """First retained offset whose record time is ``>= point``
        (``next_offset`` when the whole log is older).  ``point`` may be
        simulated seconds or an ISO-8601 timestamp."""
        t = parse_point(point)
        tails = [s.last_time for s in self._segments]
        index = bisect_left(tails, t)
        if index >= len(self._segments):
            return self._next_offset
        segment = self._segments[index]
        times = [r.time for r in segment.records]
        return segment.base_offset + bisect_left(times, t)

    def seen(self, event_id: tuple) -> bool:
        """Whether an event with this id is in the retained log."""
        return event_id in self._by_id

    def watermarks(self) -> Dict[str, int]:
        """Highest publish sequence ever logged, per publisher (monotone
        across truncation: a watermark never retreats)."""
        return dict(self._watermarks)

    # ------------------------------------------------------------------
    # Retention
    # ------------------------------------------------------------------

    def truncate_before(self, offset: int) -> int:
        """Drop whole segments entirely below ``offset``; returns the
        number of records dropped.  Truncation is segment-granular —
        :attr:`start_offset` stays ``<= offset`` and lands on a segment
        boundary — and never splits a segment or touches its file."""
        dropped = 0
        while self._segments and self._segments[0].last_offset < offset:
            segment = self._segments.pop(0)
            for record in segment.records:
                dropped += 1
                eid = record.event_id
                if eid is not None and self._by_id.get(eid) is record:
                    del self._by_id[eid]
        return dropped

    # ------------------------------------------------------------------
    # File persistence
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Close the open segment file (append after close reopens none —
        call only when done writing)."""
        if self._file is not None:
            self._file.close()
            self._file = None

    @classmethod
    def load(
        cls,
        name: str,
        directory: str,
        segment_size: int = 256,
        reopen: bool = False,
    ) -> "EventLog":
        """Rebuild a log from a directory of segment files.

        A crash mid-append can leave the *final* entry of the *final*
        segment file cut short; such a torn entry is discarded (and
        counted in :attr:`truncated_records_discarded`) rather than
        raised — losing the one entry being written is exactly fail-stop
        semantics.  Anything else that is not the log as written —
        a failed checksum, stored offsets that do not run ``0, 1, 2,
        ...`` across the files (a segment file is missing), a file other
        than the last ending inside an entry — raises
        :class:`ValueError`.

        With ``reopen=True`` the loaded log resumes file persistence in
        ``directory``: a torn entry is cut off the tail file, which is
        kept open for append, so a restarted broker continues the same
        on-disk log.
        """
        from repro.overlay.messages import Publish

        log = cls(name, segment_size=segment_size, directory=None)
        files = sorted(
            f
            for f in os.listdir(directory)
            if f.startswith(f"{name}-") and f.endswith(_SUFFIX)
        )
        position = 0
        for filename in files:
            with open(os.path.join(directory, filename), "rb") as fh:
                data = fh.read()
            position = 0
            while position < len(data):
                try:
                    entry = _read_entry(data, position, Publish)
                    if entry is None:
                        if filename != files[-1]:
                            raise ValueError("the file ends inside an entry")
                    elif entry[0] != log._next_offset:
                        raise ValueError(
                            f"stored offset {entry[0]} where "
                            f"{log._next_offset} is next"
                        )
                except ValueError as exc:
                    raise ValueError(
                        f"corrupt entry in {filename} at byte {position}: {exc}"
                    ) from exc
                if entry is None:  # the torn tail
                    log.truncated_records_discarded += 1
                    break
                offset, time, publish, position = entry
                log._book(LogRecord(offset, time, publish.envelope, publish.offset))
        if reopen:
            log.directory = directory
            if not log._tail_is_full():
                # ``position`` is where the last whole entry of the last
                # file ends; appends go to the end of what is kept.
                log._file = open(os.path.join(directory, files[-1]), "ab", buffering=0)
                log._file.truncate(position)
        return log

    def __repr__(self) -> str:
        return (
            f"EventLog({self.name!r}, records={len(self)}, "
            f"segments={len(self._segments)}, next={self._next_offset})"
        )
