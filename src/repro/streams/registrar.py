"""Client-side flow registration channel.

Flows are broker *soft state* in the §4.3 sense: a crash wipes them and
nothing at the broker remembers they existed.  What survives is this
process — a stage-0 client, exactly like a subscriber runtime — which
holds the authoritative flow graph and periodically re-sends
``FlowInstall`` for every flow over the PR 3 reliable control channel
(one link per hosting broker).  The broker treats an
install of an already-identical spec as a pure lease renewal
(refresh-or-restore, Figure 6): a healthy broker just refreshes the
lease clock, a restarted one re-creates the machine from scratch.  A
restarted broker's ``ChannelReset`` re-installs its flows at once, ahead
of the answer that ends its ``resuming``.
"""

from functools import partial
from typing import Any, Dict, List, Optional, Tuple

from repro.core.subscription import RENEW_FRACTION
from repro.obs.tracing import SUBSCRIBER_STAGE, EventTracer
from repro.overlay.channel import PeerLinks
from repro.overlay.messages import Ack, FlowInstall, FlowRemove, Sequenced
from repro.runtime.base import Executor, Transport
from repro.sim.kernel import PeriodicTask, Process
from repro.streams.spec import FlowSpec


class FlowRegistrar(Process):
    """A stage-0 client that installs flows and keeps their leases alive."""

    def __init__(
        self,
        sim: Executor,
        network: Transport,
        name: str,
        ttl: float = 60.0,
        control_window: Optional[int] = None,
        tracer: Optional[EventTracer] = None,
    ):
        super().__init__(sim, name)
        self.network = network
        self.ttl = ttl
        self.tracer = tracer if tracer is not None else EventTracer(enabled=False)
        self.control_retransmits = 0
        # Authoritative flow graph: broker name -> (broker, {flow: spec}).
        self._installed: Dict[str, Tuple[Process, Dict[str, FlowSpec]]] = {}
        #: One reliable link per hosting broker.
        self.links = PeerLinks(self, network, control_window, self._on_retransmit)

    # ------------------------------------------------------------------
    # Install / remove
    # ------------------------------------------------------------------

    def install(self, broker: Process, spec: FlowSpec) -> None:
        """Install (or replace) one flow at a broker and start renewing it."""
        _, specs = self._installed.setdefault(broker.name, (broker, {}))
        specs[spec.name] = spec
        self.links.send(broker, FlowInstall(spec))

    def remove(self, broker: Process, flow_name: str) -> None:
        """Tear one flow down and stop renewing it."""
        entry = self._installed.get(broker.name)
        if entry is not None:
            entry[1].pop(flow_name, None)
            if not entry[1]:
                del self._installed[broker.name]
        self.links.send(broker, FlowRemove(flow_name))

    def flows(self) -> List[FlowSpec]:
        return [
            spec
            for _, specs in self._installed.values()
            for spec in specs.values()
        ]

    def _on_retransmit(self, peer: str, epoch: int, frames: tuple) -> None:
        self.control_retransmits += len(frames)

    def receive(self, message: Any, sender: Process) -> None:
        if isinstance(message, Ack):
            self.links.on_ack(sender, message)
        elif isinstance(message, Sequenced):  # a restarted broker's reset
            anything_else = partial(self.receive, sender=sender)  # is unexpected
            self.links.on_frame(message, sender, anything_else, self._reinstall)
        else:
            raise TypeError(f"{self.name}: unexpected message {message!r}")

    def _reinstall(self, broker: Process) -> None:
        """Install every flow at ``broker`` again: its renewal, and what
        it is owed after it restarted without them (``links.restart``;
        answered after this)."""
        for spec in self._installed.get(broker.name, (None, {}))[1].values():
            self.links.send(broker, FlowInstall(spec))

    # ------------------------------------------------------------------
    # Lease renewal (refresh-or-restore)
    # ------------------------------------------------------------------

    def _maintenance_tasks(self) -> Tuple[PeriodicTask, ...]:
        return (("renew", self.ttl * RENEW_FRACTION, self._renew_task),)

    def _renew_task(self) -> None:
        for broker, _ in self._installed.values():
            self._reinstall(broker)
        if self.tracer.enabled and self._installed:
            self.tracer.span(
                self.sim.now,
                "flow-renew",
                self.name,
                SUBSCRIBER_STAGE,
                details=(("flows", sum(len(s) for _, s in self._installed.values())),),
            )

    # ------------------------------------------------------------------
    # Crash lifecycle (the registrar itself is a process too)
    # ------------------------------------------------------------------

    def _lose_soft_state(self) -> None:
        """Fail-stop: un-acked installs die with the incarnation; the
        next one's renewals re-send every flow."""
        self.links.reset()
