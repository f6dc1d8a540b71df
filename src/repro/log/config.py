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
    #: Delay between a broker's restart and its replay request — long
    #: enough for the children's ChannelReset-triggered renewals to
    #: rebuild the routing table the replay is matched against.
    recovery_delay: float = 0.5
    #: Replay starts this many offsets before the last acked (logged)
    #: root offset, covering events that were in flight around the
    #: crash; the recovering broker's own log deduplicates the overlap.
    recovery_rewind: int = 64
    #: Whether a restarted broker automatically requests recovery replay.
    auto_recover: bool = True

    def __post_init__(self) -> None:
        if self.segment_size < 1:
            raise ValueError(f"segment_size must be >= 1, got {self.segment_size}")
        if self.replay_rate <= 0:
            raise ValueError(f"replay_rate must be positive, got {self.replay_rate}")
        if self.replay_batch < 1:
            raise ValueError(f"replay_batch must be >= 1, got {self.replay_batch}")
        if self.recovery_delay < 0:
            raise ValueError(
                f"recovery_delay must be >= 0, got {self.recovery_delay}"
            )
        if self.recovery_rewind < 0:
            raise ValueError(
                f"recovery_rewind must be >= 0, got {self.recovery_rewind}"
            )
