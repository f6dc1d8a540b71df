"""Durable per-broker event logs, replay, and exactly-once auditing.

- :mod:`repro.log.eventlog` — segmented append-only logs with offset and
  ISO-timestamp seeks, in-sim or persisted as files of event records;
- :mod:`repro.log.replay` — the root's replayer: catch-up subscribers
  and broker crash recovery;
- :mod:`repro.log.audit` — the exactly-once verifier diffing delivery
  traces against the log.
"""

from repro.log.audit import (
    AuditFinding,
    AuditReport,
    AuditSubscription,
    dropped_window_excusals,
    verify_exactly_once,
)
from repro.log.config import LogConfig
from repro.log.eventlog import (
    EPOCH_ISO,
    EventLog,
    LogRecord,
    format_point,
    parse_point,
)
from repro.log.replay import Replayer

__all__ = [
    "AuditFinding",
    "AuditReport",
    "AuditSubscription",
    "EPOCH_ISO",
    "EventLog",
    "LogConfig",
    "LogRecord",
    "Replayer",
    "dropped_window_excusals",
    "format_point",
    "parse_point",
    "verify_exactly_once",
]
