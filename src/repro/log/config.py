"""Configuration bundle for the durable event log and replay."""

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class LogConfig:
    """Knobs for per-broker event logs, replay, and crash recovery.

    Passing a ``LogConfig`` to :class:`~repro.core.engine.
    MultiStageEventSystem` (or directly to brokers) gives every broker an
    append-only :class:`~repro.log.eventlog.EventLog` and enables the
    root's :class:`~repro.log.replay.Replayer`; ``None`` keeps the
    pre-log behaviour bit-for-bit.
    """

    #: Records per log segment (seek granularity and truncation unit).
    segment_size: int = 256
    #: Directory for real-file segment persistence; ``None`` =
    #: in-sim only.  All brokers share the directory (file names embed
    #: the broker name).
    directory: Optional[str] = None
    #: History replay rate in events per simulated second (bounds how
    #: fast a catch-up subscriber or recovering broker is driven).
    replay_rate: float = 500.0
    #: Events replayed per pump tick (the rate is enforced as
    #: ``replay_batch`` events every ``replay_batch / replay_rate``).
    replay_batch: int = 16
    #: Replay starts this many offsets before the last acked (logged)
    #: root offset, covering events that were in flight around the
    #: crash; the recovering broker's own log deduplicates the overlap.
    recovery_rewind: int = 64

    def __post_init__(self) -> None:
        # Counts are ints, not bools; ``not x > 0`` refuses a NaN rate.
        for name, least in (
            ("segment_size", 1),
            ("replay_batch", 1),
            ("recovery_rewind", 0),
        ):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < least:
                raise ValueError(f"{name} must be >= {least} (an int), got {value!r}")
        if not self.replay_rate > 0:
            raise ValueError(f"replay_rate must be positive, got {self.replay_rate}")
