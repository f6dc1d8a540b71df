"""Outside-in tracing: spans around the layers' entry points.

Nothing in ``src/`` knows about this module.  :class:`Tracer` replaces
the entry points named in ``benchmarks/e2e/README.md`` with wrappers
for the length of a ``with`` block and puts the originals back; the
wrappers report to a :class:`Recorder`, which keeps per-name call counts
and *self* time (a span's duration minus the part its child spans
cover).  A layer's share of a timed phase is the sum of its spans' self
time, so shares add up to the phase and a saving in one layer can be
read off directly.

Span names are the metric prefixes of ``BENCHMARK.json``; the later
in-program telemetry issue must keep them.
"""

import functools
import json
import sys
import time
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple, Union

from repro.core import weakening
from repro.core.engine import MultiStageEventSystem
from repro.events import serialization, typed
from repro.filters.compiled import CompiledMatchEngine
from repro.filters.covering_index import CoveringIndex
from repro.filters.engine import CachedMatchEngine, MatchEngine
from repro.filters.index import CountingIndex
from repro.filters.table import FilterTable
from repro.flow import BoundedQueue, CreditWindow
from repro.log.eventlog import EventLog
from repro.overlay.channel import ReliableSender
from repro.overlay.messages import DataFrame, Publish, PublishBatch
from repro.overlay.node import BrokerNode
from repro.overlay.publisher import PublisherRuntime
from repro.overlay.subscriber import SubscriberRuntime
from repro.runtime import asyncio_backend
from repro.runtime.multiprocess_backend import MultiprocessRuntime
from repro.sim.kernel import Process, Simulator
from repro.sim.network import Network

Namer = Union[str, Callable[[tuple], str]]
Hook = Callable[["Recorder", tuple, Any], None]
#: ``(args, kwargs) -> (publisher, seq)`` of the event a call works on.
Ident = Callable[[tuple, dict], Any]

#: Root span of a traced phase; its self time is wall time no layer span
#: covered (``driver.untraced_share``).
PHASE = "driver.phase"
HANDLER = "driver.handler"

_DATA_MESSAGES = (Publish, PublishBatch, DataFrame)


class Recorder:
    """Span stack plus per-name aggregates.

    ``keep_spans`` > 0 additionally keeps that many individual spans
    (name, start, end, parent, trace id) for :meth:`write_jsonl`; the
    aggregates never need them, and a 10 s sim run opens a few million
    spans, so the driver's own runs keep none.
    """

    def __init__(self, keep_spans: int = 0):
        self.active = False
        self.calls: Dict[str, int] = {}
        self.self_s: Dict[str, float] = {}
        self.total_s: Dict[str, float] = {}
        #: Free-form sums and maxima filled in by wrapper hooks.
        self.counts: Dict[str, float] = {}
        self.keep_spans = keep_spans
        self.spans: List[Tuple[str, float, float, int, Any]] = []
        self.opened = 0
        #: Frames are ``[name, start, child seconds, span number, trace id]``.
        self._stack: List[list] = []

    def enter(self, name: str, trace_id: Any = None) -> None:
        if trace_id is None and self._stack:
            trace_id = self._stack[-1][4]  # the event the caller works on
        self._stack.append([name, time.perf_counter(), 0.0, self.opened, trace_id])
        self.opened += 1

    def exit(self) -> None:
        end = time.perf_counter()
        name, start, child_s, number, trace_id = self._stack.pop()
        duration = end - start
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - child_s
        self.total_s[name] = self.total_s.get(name, 0.0) + duration
        parent = -1
        if self._stack:
            frame = self._stack[-1]
            frame[2] += duration
            parent = frame[3]
        if len(self.spans) < self.keep_spans:
            self.spans.append((name, start, end, parent, trace_id))

    def add(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def peak(self, key: str, value: float) -> None:
        if value > self.counts.get(key, 0):
            self.counts[key] = value

    def sum_self(self, *prefixes: str) -> float:
        return sum(
            seconds
            for name, seconds in self.self_s.items()
            if any(name == p or name.startswith(p + ".") for p in prefixes)
        )

    def sum_calls(self, *prefixes: str) -> int:
        return sum(
            count
            for name, count in self.calls.items()
            if any(name == p or name.startswith(p + ".") for p in prefixes)
        )

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for number, (name, start, end, parent, trace_id) in enumerate(self.spans):
                out.write(
                    json.dumps(
                        {
                            "span": number,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "trace_id": list(trace_id) if trace_id else None,
                        }
                    )
                    + "\n"
                )


def traced(
    recorder: Recorder,
    name: Namer,
    fn: Callable,
    hook: Optional[Hook] = None,
    ident: Optional[Ident] = None,
) -> Callable:
    """Wrap ``fn`` in a span.  A call made while a span of the same name
    is innermost (a cache wrapper delegating to its inner engine) joins
    that span instead of opening a second one, so calls count once.
    ``ident`` is consulted only when individual spans are kept."""
    stack = recorder._stack

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not recorder.active:
            return fn(*args, **kwargs)
        span = name if isinstance(name, str) else name(args)
        if stack and stack[-1][0] == span:
            return fn(*args, **kwargs)
        if ident is not None and recorder.keep_spans:
            recorder.enter(span, ident(args, kwargs))
        else:
            recorder.enter(span)
        try:
            result = fn(*args, **kwargs)
            if hook is not None:
                hook(recorder, args, result)
            return result
        finally:
            recorder.exit()

    return wrapper


# ----------------------------------------------------------------------
# Span names that depend on the call, and count hooks
# ----------------------------------------------------------------------


def _stage_role(node: Any) -> str:
    if node.parent is None:
        return "root"
    return "leaf" if node.stage == 1 else "inner"


def _node_receive_name(args: tuple) -> str:
    node, message = args[0], args[1]
    if isinstance(message, _DATA_MESSAGES):
        return "overlay.node.receive." + _stage_role(node)
    return "overlay.node.receive.control"


def _node_receive_hook(recorder: Recorder, args: tuple, result: Any) -> None:
    recorder.peak("overlay.node.queue_depth_max", args[0].queue_depth())


def _message_ident(args: tuple, kwargs: dict) -> Any:
    envelope = getattr(args[1], "envelope", None)  # a single Publish
    return envelope.event_id if envelope is not None else None


def _marshal_ident(args: tuple, kwargs: dict) -> Any:
    return kwargs.get("event_id")


def _marshal_hook(recorder: Recorder, args: tuple, result: Any) -> None:
    recorder.add("events.payload_bytes", len(result.payload))


def _encode_hook(recorder: Recorder, args: tuple, result: Any) -> None:
    recorder.add("runtime.asyncio_backend.frame_bytes", len(result))


def _match_hook(recorder: Recorder, args: tuple, result: Any) -> None:
    recorder.add("filters.match.events")


def _match_batch_hook(recorder: Recorder, args: tuple, result: Any) -> None:
    recorder.add("filters.match.events", len(args[1]))


def _publish_hook(recorder: Recorder, args: tuple, result: Any) -> None:
    if not result:
        recorder.add("overlay.publisher.refused")


def _publish_batch_hook(recorder: Recorder, args: tuple, result: Any) -> None:
    recorder.add("overlay.publisher.refused", len(args[1]) - result)


def _owned_timer(recorder: Recorder, call_at: Callable) -> Callable:
    """``Process.call_at`` with the callback wrapped in a span named
    after the owner.  Brokers do their matching and forwarding in a
    drain they ``call_soon``, not in ``receive``; without this their
    work would read as kernel time."""

    @functools.wraps(call_at)
    def wrapper(self, time_, callback, *args):
        if not recorder.active:
            return call_at(self, time_, callback, *args)
        if isinstance(self, BrokerNode):
            span = "overlay.node.timer." + _stage_role(self)
        elif isinstance(self, SubscriberRuntime):
            span = "overlay.subscriber.timer"
        else:
            span = "overlay.other.timer"
        return call_at(self, time_, traced(recorder, span, callback), *args)

    return wrapper


# ----------------------------------------------------------------------
# Installing and removing the wrappers
# ----------------------------------------------------------------------


class Wrap(NamedTuple):
    """One entry point to wrap: ``owner.attribute`` in a span ``name``."""

    owner: Any  # a class, or the module that defines a function
    attribute: str
    name: Namer
    hook: Optional[Hook] = None
    ident: Optional[Ident] = None


_METHODS: Tuple[Wrap, ...] = (
    Wrap(PublisherRuntime, "publish", "overlay.publisher.publish", _publish_hook),
    Wrap(PublisherRuntime, "publish_batch", "overlay.publisher.publish", _publish_batch_hook),
    Wrap(PublisherRuntime, "receive", "overlay.publisher.receive"),
    Wrap(Simulator, "run", "sim.kernel"),
    Wrap(Network, "send", "sim.network.send"),
    Wrap(asyncio_backend.TcpTransport, "send", "runtime.asyncio_backend.send"),
    Wrap(BrokerNode, "receive", _node_receive_name, _node_receive_hook, _message_ident),
    Wrap(SubscriberRuntime, "receive", "overlay.subscriber.receive", None, _message_ident),
    Wrap(CoveringIndex, "add", "filters.covering_index.add"),
    Wrap(CoveringIndex, "discard", "filters.covering_index.discard"),
    Wrap(MultiStageEventSystem, "subscribe", "core.engine.subscribe"),
    Wrap(EventLog, "append", "log.append"),
    Wrap(CreditWindow, "take", "flow.credit"),
    Wrap(CreditWindow, "grant", "flow.credit"),
    Wrap(BoundedQueue, "offer", "flow.queue"),
    Wrap(ReliableSender, "send", "overlay.channel.send"),
    Wrap(ReliableSender, "on_ack", "overlay.channel.ack"),
    Wrap(MultiprocessRuntime, "poll_workers", "runtime.multiprocess_backend.poll"),
) + tuple(
    # Every engine class, so an override (``CompiledMatchEngine.match_batch``)
    # and the inherited default are both covered, each where it is defined.
    Wrap(engine, attribute, name, hook)
    for engine in (MatchEngine, CountingIndex, FilterTable, CompiledMatchEngine, CachedMatchEngine)
    for attribute, name, hook in (
        ("match", "filters.match", _match_hook),
        ("match_batch", "filters.match", _match_batch_hook),
        ("insert", "filters.insert", None),
        ("remove", "filters.remove", None),
        ("remove_destination", "filters.remove", None),
    )
    if attribute in vars(engine)
    and not getattr(vars(engine)[attribute], "__isabstractmethod__", False)
)

#: Callers import these by name, so the wrapper is put wherever the
#: original object is bound.
_FUNCTIONS: Tuple[Wrap, ...] = (
    Wrap(typed, "reflect_attributes", "events.reflect"),
    Wrap(serialization, "marshal", "events.marshal", _marshal_hook, _marshal_ident),
    Wrap(serialization, "unmarshal", "events.unmarshal"),
    Wrap(asyncio_backend, "encode_frame", "runtime.asyncio_backend.encode", _encode_hook),
    Wrap(asyncio_backend, "decode_frame", "runtime.asyncio_backend.decode"),
    Wrap(weakening, "weaken_filter", "core.weakening"),
    Wrap(weakening, "merge_covering", "core.weakening"),
)


class Tracer:
    """``with Tracer(recorder):`` — wrappers installed and the recorder
    active inside the block, originals back in place after it.

    Given a live ``system`` its network's sizer (an instance attribute)
    is wrapped too.  ``root`` opens a :data:`PHASE` span around the whole
    block, for code that does not open one per segment (set-up).
    """

    def __init__(
        self,
        recorder: Recorder,
        system: Optional[MultiStageEventSystem] = None,
        root: bool = False,
    ):
        self.recorder = recorder
        self.system = system
        self.root = root
        self._undo: List[Tuple[Any, str, Any]] = []

    def _set(self, owner: Any, attribute: str, value: Any) -> None:
        # vars(), not getattr: an inherited method must not be copied
        # down onto the subclass when it is restored.
        self._undo.append((owner, attribute, vars(owner).get(attribute)))
        setattr(owner, attribute, value)

    def __enter__(self) -> "Tracer":
        recorder = self.recorder
        for wrap in _METHODS:
            original = vars(wrap.owner)[wrap.attribute]
            self._set(
                wrap.owner,
                wrap.attribute,
                traced(recorder, wrap.name, original, wrap.hook, wrap.ident),
            )
        self._set(Process, "call_at", _owned_timer(recorder, Process.call_at))
        for wrap in _FUNCTIONS:
            original = getattr(wrap.owner, wrap.attribute)
            wrapper = traced(recorder, wrap.name, original, wrap.hook, wrap.ident)
            for holder in list(sys.modules.values()):
                if getattr(holder, "__name__", "").startswith("repro") and (
                    vars(holder).get(wrap.attribute) is original
                ):
                    self._set(holder, wrap.attribute, wrapper)
        network = self.system.network if self.system is not None else None
        if hasattr(network, "sizer"):
            self._set(network, "sizer", traced(recorder, "sim.network.sizer", network.sizer))
        recorder.active = True
        if self.root:
            recorder.enter(PHASE)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        if self.root:
            self.recorder.exit()
        self.recorder.active = False
        while self._undo:
            owner, attribute, original = self._undo.pop()
            if original is None:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)
