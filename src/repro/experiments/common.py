"""Scenario runner for the paper's simulation setup (Section 5.2).

The paper's configuration: a four-level system — 1 node at level 3, 10
at level 2, 100 at level 1, and user-level subscribers below — running
the bibliographic workload, with pseudo-random events injected at the
root.  :func:`run_bibliographic` reproduces that pipeline end to end and
returns a :class:`ScenarioResult` from which the RLC table, the Figure-7
series, and the ablation metrics are all derived.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.engine import MultiStageEventSystem
from repro.metrics.counters import NodeCounters
from repro.metrics.load import mean, relative_load_complexity
from repro.metrics.matching import average_matching_rate, matching_rate
from repro.overlay.config import BrokerConfig
from repro.sim.rng import RngRegistry
from repro.workloads.bibliographic import BIB_EVENT_CLASS, BibliographicWorkload


@dataclass
class ScenarioConfig:
    """Knobs of one bibliographic simulation run.

    Defaults give a fast, CI-sized run; the benchmarks scale
    ``stage_sizes``/``n_subscribers``/``n_events`` up to the paper's
    configuration (100/10/1 nodes, O(1000) subscriptions).
    """

    stage_sizes: Tuple[int, ...] = (20, 5, 1)
    n_subscribers: int = 200
    n_events: int = 200
    seed: int = 0
    engine: str = BrokerConfig.engine
    ttl: float = 60.0
    wildcard_rate: float = 0.0
    #: Which attribute (and everything less general) wildcard subscriptions
    #: blank out; "author" exercises HANDLE-WILDCARD-SUBS (a title-only
    #: wildcard already targets stage 1, the normal attachment point).
    wildcard_attribute: str = "author"
    #: "similarity" follows Figure 5; "random" joins a random stage-1 node.
    placement: str = "similarity"
    wildcard_routing: bool = True
    #: Compact broker tables with covering merges (§4 g1-collapse).
    compact: bool = False
    #: Routing-decision cache on broker match engines (hot-path memo).
    cache: bool = BrokerConfig.cache
    #: Covering-based subscription aggregation on the broker uplinks
    #: (suppress propagation of covered filters; §4, Prop. 1).
    aggregate: bool = True
    # Workload domain sizes (unpublished in the paper; see EXPERIMENTS.md).
    n_years: int = 12
    n_conferences: int = 30
    n_authors: int = 800
    n_records: int = 1500
    author_exponent: float = 0.9
    record_exponent: float = 0.9
    sibling_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.placement not in ("similarity", "random"):
            raise ValueError(f"unknown placement {self.placement!r}")
        if self.n_subscribers < 1 or self.n_events < 1:
            raise ValueError("need at least one subscriber and one event")


@dataclass
class ScenarioResult:
    """Everything measured from one run, with metric helpers."""

    config: ScenarioConfig
    system: MultiStageEventSystem
    workload: BibliographicWorkload
    total_events: int
    total_subscriptions: int
    #: {stage: [(process name, counters)]}; stage 0 is the subscribers.
    counters_by_stage: Dict[int, List[Tuple[str, NodeCounters]]] = field(
        default_factory=dict
    )
    #: Per-subscriber delivery trace: {subscriber name: [titles in the
    #: order delivered]}.  Per-subscriber order is deterministic and, by
    #: the covering argument, invariant under the aggregation ablation.
    deliveries: Dict[str, List[str]] = field(default_factory=dict)

    def stages(self) -> List[int]:
        return sorted(self.counters_by_stage)

    def rlc_values(self, stage: int) -> List[float]:
        """Per-node RLC at one stage (§5.1)."""
        return [
            relative_load_complexity(
                counters, self.total_events, self.total_subscriptions
            )
            for _, counters in self.counters_by_stage[stage]
        ]

    def rlc_node_average(self, stage: int) -> float:
        """The table's "Node avg. of RLC" column."""
        return mean(self.rlc_values(stage))

    def rlc_stage_total(self, stage: int) -> float:
        """The table's "Total node avg. of RLC" column (avg x node count)."""
        return sum(self.rlc_values(stage))

    def rlc_global_total(self) -> float:
        """Sum over all stages — the paper observes this lands around 1."""
        return sum(self.rlc_stage_total(stage) for stage in self.stages())

    def mr_values(self, stage: int) -> List[float]:
        """Per-node matching rate at one stage (the Figure-7 series)."""
        return [
            matching_rate(counters)
            for _, counters in self.counters_by_stage[stage]
            if counters.events_received > 0
        ]

    def subscriber_average_mr(self) -> float:
        """The paper's headline 0.87: average MR of stage-0 processes."""
        return average_matching_rate(
            [counters for _, counters in self.counters_by_stage[0]]
        )

    def stage1_event_loads(self) -> List[int]:
        """Events received per stage-1 node (wildcard ablation metric)."""
        return [c.events_received for _, c in self.counters_by_stage[1]]

    def filters_per_stage(self) -> Dict[int, int]:
        """Total distinct filters held per broker stage."""
        return {
            stage: sum(c.filters_held for _, c in self.counters_by_stage[stage])
            for stage in self.stages()
            if stage >= 1
        }

    def aggregation_totals(self) -> Dict[str, float]:
        """System-wide covering-aggregation counters (broker stages)."""
        from repro.metrics.report import aggregate_aggregation_counters

        return aggregate_aggregation_counters(
            counters
            for stage in self.stages()
            if stage >= 1
            for _, counters in self.counters_by_stage[stage]
        )


def run_bibliographic(config: Optional[ScenarioConfig] = None) -> ScenarioResult:
    """Run the §5.2 simulation pipeline and collect all counters."""
    config = config or ScenarioConfig()
    rngs = RngRegistry(config.seed)
    system = MultiStageEventSystem(
        stage_sizes=config.stage_sizes,
        ttl=config.ttl,
        seed=config.seed,
        engine=config.engine,
        wildcard_routing=config.wildcard_routing,
        compact=config.compact,
        cache=config.cache,
        aggregate=config.aggregate,
    )
    workload = BibliographicWorkload(
        rngs.stream("workload/records"),
        n_years=config.n_years,
        n_conferences=config.n_conferences,
        n_authors=config.n_authors,
        n_records=config.n_records,
        author_exponent=config.author_exponent,
        record_exponent=config.record_exponent,
        sibling_rate=config.sibling_rate,
    )
    stages = system.hierarchy.top_stage + 1
    system.advertise(
        BIB_EVENT_CLASS,
        schema=workload.schema,
        association=workload.association(stages),
    )
    system.drain()

    subscription_rng = rngs.stream("workload/subscriptions")
    placement_rng = rngs.stream("placement")
    stage1_nodes = system.hierarchy.stage1_nodes()
    deliveries: Dict[str, List[str]] = {}

    def recorder(name: str):
        log = deliveries.setdefault(name, [])

        def handler(event, metadata, subscription):
            log.append(getattr(metadata, "properties", metadata)["title"])

        return handler

    for index in range(config.n_subscribers):
        subscriber = system.create_subscriber(f"sub-{index}")
        filter_ = workload.sample_subscription(
            subscription_rng,
            wildcard_rate=config.wildcard_rate,
            wildcard_attribute=config.wildcard_attribute,
        )
        at_node = None
        if config.placement == "random":
            at_node = placement_rng.choice(stage1_nodes)
        system.subscribe(
            subscriber,
            filter_,
            event_class=BIB_EVENT_CLASS,
            handler=recorder(subscriber.name),
            at_node=at_node,
        )
        # Sequential joins: each subscription sees the filters installed by
        # the previous ones, which is what lets similarity placement work.
        system.drain()

    publisher = system.create_publisher("bib-feed")
    event_rng = rngs.stream("workload/events")
    for _ in range(config.n_events):
        publisher.publish(workload.sample_record(event_rng))
    system.drain()

    return ScenarioResult(
        config=config,
        system=system,
        workload=workload,
        total_events=publisher.events_published,
        total_subscriptions=system.total_subscriptions(),
        counters_by_stage=system.counters_by_stage(),
        deliveries=deliveries,
    )
