"""``MultiStageEventSystem`` — the public facade of the library.

Gluing layer over the simulation kernel, the broker hierarchy, the event
model, and the filter language.  A typical session::

    system = MultiStageEventSystem(stage_sizes=(100, 10, 1), seed=7)
    system.register_type(Stock)
    system.advertise("Stock", schema=("class", "symbol", "price"))

    publisher = system.create_publisher("quotes")
    subscriber = system.create_subscriber("alice")
    system.subscribe(subscriber, 'symbol = "Foo" and price < 10.0',
                     event_class="Stock", handler=on_stock)
    system.drain()                       # let the join protocol finish

    publisher.publish(Stock("Foo", 9.0))
    system.drain()

Type-based (polymorphic) subscriptions: ``subscribe`` accepts a
registered event *class* — the subscription expands over every advertised
conforming class, and automatically extends when a publisher later
advertises a brand-new subtype, reproducing the paper's claim that
publishers can grow the type hierarchy without subscribers re-subscribing.
"""

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Type, Union

from repro.core.advertisement import Advertisement, AdvertisementRegistry
from repro.core.stages import AttributeStageAssociation
from repro.core.subscription import Subscription, next_group_id
from repro.events.base import CLASS_ATTRIBUTE
from repro.events.closures import FilterClosure
from repro.events.hierarchy import TypeRegistry
from repro.filters.disjunction import Disjunction
from repro.filters.filter import Filter
from repro.filters.parser import parse_filter
from repro.flow import FlowConfig
from repro.log.config import LogConfig
from repro.obs.sampling import StageSampler
from repro.obs.tracing import EventTracer
from repro.overlay.config import BrokerConfig
from repro.overlay.hierarchy import Hierarchy, build_hierarchy
from repro.overlay.publisher import PublisherRuntime
from repro.overlay.subscriber import Handler, SubscriberRuntime
from repro.sim.kernel import SimulationError, Simulator
from repro.sim.network import Network
from repro.sim.rng import RngRegistry
from repro.streams.flowgraph import FlowGraph
from repro.streams.registrar import FlowRegistrar
from repro.streams.spec import FlowSpec

FilterLike = Union[Filter, Disjunction, str, None]


class _PendingTypeSubscription:
    """A type-based subscription awaiting future subtype advertisements."""

    def __init__(
        self,
        subscriber: SubscriberRuntime,
        base_class: Type,
        filter_: Filter,
        handler: Optional[Handler],
        residual: Optional[Callable[[Any], bool]],
    ):
        self.subscriber = subscriber
        self.base_class = base_class
        self.filter = filter_
        self.handler = handler
        self.residual = residual
        self.covered_classes: set = set()


class MultiStageEventSystem:
    """A complete simulated deployment of the paper's event system."""

    def __init__(
        self,
        stage_sizes: Sequence[int] = (100, 10, 1),
        ttl: float = 60.0,
        seed: int = 0,
        engine: str = BrokerConfig.engine,
        link_latency: float = 0.001,
        wildcard_routing: bool = True,
        compact: bool = False,
        cache: bool = BrokerConfig.cache,
        aggregate: bool = True,
        tracing: bool = False,
        flow: Optional[FlowConfig] = None,
        service_rate: Optional[float] = None,
        service_batch: int = 16,
        log: Optional[LogConfig] = None,
        runtime: str = "sim",
    ):
        """``stage_sizes``, ``seed``, ``link_latency`` and ``runtime``
        shape the deployment, ``tracing`` switches the one recorder
        (:attr:`tracer`); every other keyword is a broker option,
        documented on :class:`~repro.overlay.config.BrokerConfig`."""
        #: The one broker configuration every broker of this system —
        #: in this process or in a worker — is built from.  Validated
        #: here, before any runtime resource or process exists.
        self.broker_config = BrokerConfig(
            ttl=ttl,
            engine=engine,
            wildcard_routing=wildcard_routing,
            compact=compact,
            cache=cache,
            aggregate=aggregate,
            flow=flow,
            service_rate=service_rate,
            service_batch=service_batch,
            log=log,
        )
        if runtime not in ("sim", "asyncio", "multiprocess"):
            raise ValueError(
                f"runtime must be 'sim', 'asyncio' or 'multiprocess', "
                f"got {runtime!r}"
            )
        #: Which execution backend hosts this system ("sim" is the
        #: deterministic default; "asyncio" runs the same overlay over
        #: real localhost TCP sockets at wall-clock speed; "multiprocess"
        #: additionally puts every broker in its own OS process).
        self.runtime_name = runtime
        #: Causal span tracer shared by every process of this system
        #: (publishers, brokers, subscribers, and the network fabric).
        #: On "multiprocess" it only sees driver-side spans (publish,
        #: deliver) — broker-side spans live in the worker processes.
        self.tracer = EventTracer(enabled=tracing)
        if runtime == "sim":
            self.sim = Simulator()
            self.network = Network(
                self.sim, default_latency=link_latency, tracer=self.tracer
            )
        else:
            # One socket runtime; "multiprocess" only hosts the brokers
            # in worker processes of their own.
            from repro.runtime.asyncio_backend import AsyncioRuntime, TcpTransport
            from repro.runtime.multiprocess_backend import MultiprocessRuntime

            self.sim = (
                MultiprocessRuntime() if runtime == "multiprocess" else AsyncioRuntime()
            )
            self.network = TcpTransport(
                self.sim, default_latency=link_latency, tracer=self.tracer
            )
        #: Flow-control knobs, also plumbed to every publisher and
        #: subscriber this system creates (None = flow control off).
        self.flow = flow
        self.rngs = RngRegistry(seed)
        if runtime == "multiprocess":
            from repro.runtime.multiprocess_backend import SystemSpec

            # Workers rebuild their slice of the tree from this spec;
            # the driver-side hierarchy is all proxies.
            try:
                self.hierarchy: Hierarchy = self.sim.launch(
                    self.network,
                    SystemSpec(
                        stage_sizes=tuple(stage_sizes),
                        seed=seed,
                        broker=self.broker_config,
                        link_latency=link_latency,
                    ),
                )
            except BaseException:
                # A worker that cannot start must not leave its siblings,
                # the control server and the loop behind.
                self.close()
                raise
        else:
            self.hierarchy = build_hierarchy(
                self.sim,
                self.network,
                stage_sizes,
                self.broker_config,
                rngs=self.rngs,
                link_latency=link_latency,
                tracer=self.tracer,
            )
        #: Per-stage time-series sampler (armed by :meth:`start_sampling`).
        self.sampler: Optional[StageSampler] = None
        self.ttl = ttl
        self.types = TypeRegistry()
        self.advertisements = AdvertisementRegistry()
        if runtime == "multiprocess":
            # What a restore in a fresh process re-reads.
            self.sim.advertisements = self.advertisements
            self.sim.edges_at = self._edges_at
        self.publishers: List[PublisherRuntime] = []
        self.subscribers: List[SubscriberRuntime] = []
        self.flow_registrars: List[FlowRegistrar] = []
        self._pending_type_subs: List[_PendingTypeSubscription] = []
        self._system_publisher: Optional[PublisherRuntime] = None
        self._maintenance_started = False
        self._names = 0

    # ------------------------------------------------------------------
    # Topology / participants
    # ------------------------------------------------------------------

    @property
    def root(self):
        return self.hierarchy.root

    def _fresh_name(self, prefix: str) -> str:
        self._names += 1
        return f"{prefix}-{self._names}"

    def _activate(self, process) -> None:
        """Where processes are hosted in other OS processes, a process
        hosted here must be reachable (its server bound, its port
        announced) *before* the first frame naming it crosses the wire;
        everywhere else this is a no-op."""
        activate = getattr(self.network, "activate", None)
        if activate is not None:
            activate(process)

    def create_publisher(
        self,
        name: Optional[str] = None,
        rate_limit: Optional[float] = None,
        burst: Optional[float] = None,
    ) -> PublisherRuntime:
        publisher = PublisherRuntime(
            self.sim,
            self.network,
            name or self._fresh_name("publisher"),
            self.root,
            types=self.types,
            tracer=self.tracer,
            flow=self.flow,
            rate_limit=rate_limit,
            burst=burst,
            ttl=self.ttl,
        )
        self._activate(publisher)
        self.publishers.append(publisher)
        if self._maintenance_started:
            publisher.start_maintenance()
        return publisher

    def create_subscriber(self, name: Optional[str] = None) -> SubscriberRuntime:
        subscriber = SubscriberRuntime(
            self.sim,
            self.network,
            name or self._fresh_name("subscriber"),
            self.root,
            ttl=self.ttl,
            tracer=self.tracer,
            flow=self.flow,
        )
        self._activate(subscriber)
        self.subscribers.append(subscriber)
        if self._maintenance_started:
            subscriber.start_maintenance()
        return subscriber

    # ------------------------------------------------------------------
    # In-broker information flows (streams/, DESIGN §15)
    # ------------------------------------------------------------------

    def install_flows(
        self,
        flows: Union[FlowGraph, Sequence[FlowSpec]],
        name: Optional[str] = None,
    ) -> FlowRegistrar:
        """Install a flow graph on its hosting brokers.

        Creates a stage-0 :class:`FlowRegistrar` owning the graph: it
        sends ``FlowInstall`` over the reliable control channel and —
        once maintenance runs — renews every flow's lease each half-TTL,
        which is also what re-installs flows a crashed broker lost
        (refresh-or-restore).  Each spec's ``broker`` names its host
        (``None`` = the root).  Output event classes not yet advertised
        are auto-advertised with the spec's derived schema so that
        subscriptions on derived events standardize and weaken like any
        other class.
        """
        graph = flows if isinstance(flows, FlowGraph) else FlowGraph(flows)
        registrar = FlowRegistrar(
            self.sim,
            self.network,
            name or self._fresh_name("flows"),
            ttl=self.ttl,
            control_window=self.flow.control_window if self.flow else None,
            tracer=self.tracer,
        )
        self._activate(registrar)
        self.flow_registrars.append(registrar)
        for spec in graph.flows():
            if self.advertisements.get(spec.output_class) is None:
                self.advertise(spec.output_class, spec.output_schema())
            registrar.install(self._broker_named(spec.broker), spec)
        if self._maintenance_started:
            registrar.start_maintenance()
        return registrar

    def _edges_at(self, broker: str) -> Tuple[str, ...]:
        """The edge processes homed at, rooted at or hosting flows at the
        broker named ``broker``: those its restart tells beside the tree."""
        rooted = [p for p in (*self.publishers, *self.subscribers) if p.root.name == broker]
        homed = [s for s in self.subscribers if broker in {h.name for h in s._homes()}]
        hosting = [r for r in self.flow_registrars if broker in r._installed]
        return tuple(dict.fromkeys(p.name for p in (*rooted, *homed, *hosting)))

    def _broker_named(self, name: Optional[str]):
        if name is None:
            return self.root
        for node in self.hierarchy.nodes():
            if node.name == name:
                return node
        raise KeyError(f"no broker named {name!r} in the hierarchy")

    # ------------------------------------------------------------------
    # Types and advertisements
    # ------------------------------------------------------------------

    def register_type(self, cls: Type, name: Optional[str] = None) -> str:
        """Register an application event class for typed publishing."""
        return self.types.register(cls, name)

    def advertise(
        self,
        event_class: Union[str, Type],
        schema: Sequence[str],
        stage_prefixes: Optional[Sequence[int]] = None,
        association: Optional[AttributeStageAssociation] = None,
        publisher: Optional[PublisherRuntime] = None,
    ) -> Advertisement:
        """Advertise an event class with its generality-ordered ``schema``.

        ``schema`` orders attributes most-general-first and may include
        the reserved ``class`` attribute (include it whenever the class
        participates in type-based filtering).  The default ``Gc`` drops
        one least-general attribute per stage
        (:meth:`AttributeStageAssociation.uniform`); pass
        ``stage_prefixes`` or a full ``association`` to override.
        """
        if isinstance(event_class, type):
            name = (
                self.types.name_of(event_class)
                if self.types.is_registered(event_class)
                else self.register_type(event_class)
            )
        else:
            name = event_class
        if association is None:
            if stage_prefixes is not None:
                association = AttributeStageAssociation.from_prefixes(
                    schema, stage_prefixes
                )
            else:
                stages = self.hierarchy.top_stage + 1
                association = AttributeStageAssociation.uniform(schema, stages)
        advertisement = Advertisement(name, association)
        self.advertisements.add(advertisement)
        source = publisher or self._advertising_publisher()
        source.advertise(advertisement)
        self._expand_type_subscriptions(advertisement)
        return advertisement

    def advertise_from_samples(
        self,
        event_class: Union[str, Type],
        samples,
        include_class: bool = True,
        publisher: Optional[PublisherRuntime] = None,
    ) -> Advertisement:
        """Advertise with a schema *inferred* from sample events (§4.1).

        Attribute generality is estimated from observed value-domain
        sizes; the stage association is the uniform layout for this
        hierarchy's depth.
        """
        if isinstance(event_class, type):
            name = (
                self.types.name_of(event_class)
                if self.types.is_registered(event_class)
                else self.register_type(event_class)
            )
        else:
            name = event_class
        advertisement = Advertisement.infer(
            name, samples, stages=self.hierarchy.top_stage + 1,
            include_class=include_class,
        )
        self.advertisements.add(advertisement)
        source = publisher or self._advertising_publisher()
        source.advertise(advertisement)
        self._expand_type_subscriptions(advertisement)
        return advertisement

    def _advertising_publisher(self) -> PublisherRuntime:
        if self._system_publisher is None:
            self._system_publisher = PublisherRuntime(
                self.sim, self.network, "system-advertiser", self.root,
                types=self.types,
            )
            self._activate(self._system_publisher)
        return self._system_publisher

    # ------------------------------------------------------------------
    # Subscribing
    # ------------------------------------------------------------------

    def subscribe(
        self,
        subscriber: SubscriberRuntime,
        filter: FilterLike = None,
        event_class: Union[str, Type, None] = None,
        handler: Optional[Handler] = None,
        residual: Optional[Callable[[Any], bool]] = None,
        at_node: Any = None,
    ) -> List[Subscription]:
        """Register a subscription; returns the concrete Subscriptions made.

        ``filter`` may be a :class:`Filter`, filter text, or ``None`` for
        "all events of the class".  ``event_class`` may be an advertised
        class name, or a registered Python class — in which case the
        subscription is *type-based*: it expands over every advertised
        conforming class now and in the future.  ``residual`` attaches a
        stage-0-only predicate over the typed event object.  ``at_node``
        bypasses similarity placement and joins at a fixed node (ablation
        hook; see :meth:`SubscriberRuntime.subscribe`).
        """
        filter_ = self._coerce_filter(filter)
        if filter_.matches_nothing:
            # Refused here, before any state exists or anything is sent:
            # no broker table can hold fF.
            raise ValueError(f"filter {filter!r} matches nothing: nothing to subscribe to")
        if isinstance(filter_, Disjunction):
            return self._subscribe_disjunction(
                subscriber, filter_, event_class, handler, residual, at_node
            )
        if event_class is None:
            event_class = self._infer_event_class(filter_)
        if isinstance(event_class, type):
            return self._subscribe_by_type(
                subscriber, event_class, filter_, handler, residual
            )
        return [
            self._subscribe_concrete(
                subscriber, event_class, filter_, handler, residual, at_node=at_node
            )
        ]

    def _subscribe_disjunction(
        self,
        subscriber: SubscriberRuntime,
        disjunction: Disjunction,
        event_class: Union[str, Type, None],
        handler: Optional[Handler],
        residual: Optional[Callable[[Any], bool]],
        at_node: Any,
    ) -> List[Subscription]:
        """OR-subscriptions: one routed subscription per branch, all in
        one delivery-dedup group (the subscriber runtime delivers each
        event at most once per group even when branches live on
        different nodes)."""
        simplified = disjunction.simplified()
        if isinstance(simplified, Filter):
            return self.subscribe(
                subscriber, simplified, event_class=event_class,
                handler=handler, residual=residual, at_node=at_node,
            )
        group = next_group_id()
        subscriptions: List[Subscription] = []
        for branch in simplified.branches:
            branch_class = event_class
            if branch_class is None:
                branch_class = self._infer_event_class(branch)
            if isinstance(branch_class, type):
                raise ValueError(
                    "type-based subscriptions cannot be combined with "
                    "disjunctive filters; subscribe per class instead"
                )
            subscription = self._subscribe_concrete(
                subscriber, branch_class, branch, handler, residual,
                at_node=at_node, group=group,
            )
            subscriptions.append(subscription)
        return subscriptions

    def _coerce_filter(self, filter_: FilterLike) -> Filter:
        if filter_ is None:
            return Filter.top()
        if isinstance(filter_, str):
            return parse_filter(filter_)
        return filter_

    def _infer_event_class(self, filter_: Filter) -> str:
        for constraint in filter_.constraints:
            if constraint.attribute == CLASS_ATTRIBUTE and not constraint.is_wildcard:
                return constraint.operand
        raise ValueError(
            "event_class is required when the filter has no 'class' constraint"
        )

    def _subscribe_by_type(
        self,
        subscriber: SubscriberRuntime,
        base_class: Type,
        filter_: Filter,
        handler: Optional[Handler],
        residual: Optional[Callable[[Any], bool]],
    ) -> List[Subscription]:
        base_name = self.types.name_of(base_class)
        pending = _PendingTypeSubscription(
            subscriber, base_class, filter_, handler, residual
        )
        self._pending_type_subs.append(pending)
        subscriptions = []
        for name in self.types.conformers(base_name):
            advertisement = self.advertisements.get(name)
            if advertisement is None:
                continue
            pending.covered_classes.add(name)
            subscriptions.append(
                self._subscribe_concrete(subscriber, name, filter_, handler, residual)
            )
        return subscriptions

    def _expand_type_subscriptions(self, advertisement: Advertisement) -> None:
        """Auto-subscribe pending type subscriptions to a new conformer."""
        name = advertisement.event_class
        try:
            cls = self.types.class_of(name)
        except KeyError:
            return
        for pending in self._pending_type_subs:
            if name in pending.covered_classes:
                continue
            if not issubclass(cls, pending.base_class):
                continue
            pending.covered_classes.add(name)
            self._subscribe_concrete(
                pending.subscriber, name, pending.filter,
                pending.handler, pending.residual,
            )

    def _subscribe_concrete(
        self,
        subscriber: SubscriberRuntime,
        event_class: str,
        filter_: Filter,
        handler: Optional[Handler],
        residual: Optional[Callable[[Any], bool]],
        at_node: Any = None,
        group: Optional[int] = None,
    ) -> Subscription:
        advertisement = self.advertisements.require(event_class)
        standard = advertisement.standardize(filter_)
        closure = (
            FilterClosure(standard, residual=residual) if residual is not None else None
        )
        subscription = Subscription(standard, event_class, closure, group=group)
        subscriber.subscribe(subscription, handler, at_node=at_node)
        return subscription

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------

    def drain(self, max_events: Optional[int] = None) -> int:
        """Run until the event queue empties (or ``max_events``).

        Only safe before :meth:`start_maintenance` — the periodic TTL
        tasks reschedule themselves forever, so a maintained system must
        use :meth:`run_for` instead; calling drain then raises rather
        than spinning forever.
        """
        sampling = self.sampler is not None and self.sampler.running
        if (self._maintenance_started or sampling) and max_events is None:
            raise SimulationError(
                "drain() would never return while TTL maintenance or the "
                "stage sampler is running; use run_for(duration) or pass "
                "max_events"
            )
        return self.sim.run(max_events=max_events)

    def run_for(self, duration: float) -> int:
        """Advance time by ``duration`` (simulated or wall, per backend)."""
        return self.sim.run(until=self.sim.now + duration)

    def run_until(
        self,
        predicate: Callable[[], bool],
        timeout: float = 10.0,
        poll: float = 0.02,
    ) -> bool:
        """Drive the backend until ``predicate()`` holds (False on timeout).

        On the asyncio backend this spins the event loop in ``poll``-sized
        wall-clock slices; on the simulator it steps events, checking the
        predicate between steps, until ``timeout`` simulated seconds pass
        or the queue drains.
        """
        runner = getattr(self.sim, "run_until", None)
        if runner is not None:
            return runner(predicate, timeout, poll)
        deadline = self.sim.now + timeout
        while not predicate() and self.sim.now < deadline:
            if not self.sim.step():
                break
        return predicate()

    def kill(self, process) -> None:
        """Fail-stop a process on either backend.

        On the simulator this is ``process.crash()``; on the asyncio
        backend the endpoint's sockets are torn down too, so peers see a
        dead port rather than a silent drop gate.
        """
        killer = getattr(self.network, "kill", None)
        if killer is not None:
            killer(process)
        else:
            process.crash()

    def restore(self, process) -> None:
        """Bring a killed process back (rebinding its port on asyncio)."""
        restorer = getattr(self.network, "restore", None)
        if restorer is not None:
            restorer(process)
        else:
            process.restart()

    def close(self) -> None:
        """Release backend resources (sockets, event loop).

        A no-op on the simulator; required teardown on the asyncio
        backend.  The system is unusable afterwards.
        """
        closer = getattr(self.network, "close", None)
        if closer is not None:
            closer()
        closer = getattr(self.sim, "close", None)
        if closer is not None:
            closer()

    def __enter__(self) -> "MultiStageEventSystem":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def start_maintenance(self) -> None:
        """Start TTL renewal/purge tasks on every node, subscriber and
        publisher; those made later start theirs."""
        self._maintenance_started = True
        self.hierarchy.start_maintenance()
        for process in (*self.subscribers, *self.flow_registrars, *self.publishers):
            process.start_maintenance()

    def stop_maintenance(self) -> None:
        self._maintenance_started = False
        self.hierarchy.stop_maintenance()
        for process in (*self.subscribers, *self.flow_registrars, *self.publishers):
            process.stop_maintenance()

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def start_sampling(self, interval: float = 0.5) -> StageSampler:
        """Start per-stage time-series sampling across all brokers.

        Like maintenance, a running sampler keeps the queue non-empty:
        use :meth:`run_for`, and :meth:`stop_sampling` when done.
        """
        if self.sampler is None:
            self.sampler = StageSampler(self.sim, interval=interval)
            self.sampler.attach(self.hierarchy.nodes())
        self.sampler.start()
        return self.sampler

    def stop_sampling(self) -> None:
        if self.sampler is not None:
            self.sampler.stop()

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------

    def total_events_published(self) -> int:
        total = sum(p.events_published for p in self.publishers)
        if self._system_publisher is not None:
            total += self._system_publisher.events_published
        return total

    def total_subscriptions(self) -> int:
        return sum(len(s.subscriptions()) for s in self.subscribers)

    def total_queue_depth(self) -> int:
        """Events queued anywhere in the system right now: broker inbound
        and outbound queues plus publisher credit-blocked local queues —
        the quantity the flow-control memory bound caps."""
        depth = sum(node.queue_depth() for node in self.hierarchy.nodes())
        depth += sum(p.pending_count for p in self.publishers)
        return depth

    def total_events_shed(self) -> int:
        """Events shed across all brokers and publishers."""
        total = sum(n.counters.events_shed for n in self.hierarchy.nodes())
        total += sum(p.counters.events_shed for p in self.publishers)
        return total

    def counters_by_stage(self) -> Dict[int, List[Tuple[str, Any]]]:
        """``{stage: [(name, NodeCounters), ...]}`` including stage 0."""
        result: Dict[int, List[Tuple[str, Any]]] = {
            0: [(s.name, s.counters) for s in self.subscribers]
        }
        for stage in self.hierarchy.stages:
            result[stage] = [
                (n.name, n.counters) for n in self.hierarchy.nodes(stage)
            ]
        return result

    def __repr__(self) -> str:
        return (
            f"MultiStageEventSystem({self.hierarchy!r}, "
            f"{len(self.publishers)} publishers, {len(self.subscribers)} subscribers)"
        )
