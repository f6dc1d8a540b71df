"""Scalability sweep: per-node load as subscribers multiply.

The paper's §5.3 claim: "due to the delegation of work among
intermediate nodes, the addition of more subscribers does not overload
the existing nodes", and "by adding a few number of intermediate nodes,
the number of subscribers can be increased significantly without
increasing the required computational power at any node".

This experiment sweeps the subscription count on a fixed hierarchy and
reports the *absolute* Load Complexity (events x filters — RLC would be
trivially normalized by the subscription count) of the busiest node per
stage, against the centralized server whose LC grows linearly by
definition.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.experiments.common import ScenarioConfig, run_bibliographic
from repro.metrics.load import load_complexity
from repro.metrics.report import render_table


@dataclass
class ScalabilityPoint:
    """Per-node peak loads at one subscription count."""

    n_subscribers: int
    #: Max LC over nodes, per stage.
    max_lc_by_stage: Dict[int, float]
    #: The centralized comparator: every event against every subscription.
    centralized_lc: float
    subscriber_mr: float
    #: Distinct filters held per broker stage (covering aggregation
    #: keeps the upper stages maximal-only).
    filters_by_stage: Dict[int, int] = field(default_factory=dict)
    #: Total ``req-Insert`` control messages sent across brokers.
    req_inserts: int = 0
    #: Upward propagations suppressed by covering aggregation.
    suppressed: int = 0

    def max_broker_lc(self) -> float:
        return max(
            lc for stage, lc in self.max_lc_by_stage.items() if stage >= 1
        )


def run_scalability(
    base: Optional[ScenarioConfig] = None,
    subscriber_counts: Sequence[int] = (125, 250, 500, 1000),
) -> List[ScalabilityPoint]:
    """Sweep subscriber counts on an otherwise fixed scenario."""
    base = base or ScenarioConfig()
    points: List[ScalabilityPoint] = []
    for count in subscriber_counts:
        config = ScenarioConfig(**{**base.__dict__, "n_subscribers": count})
        result = run_bibliographic(config)
        max_lc = {}
        for stage in result.stages():
            if stage < 1:
                continue
            max_lc[stage] = max(
                load_complexity(counters)
                for _, counters in result.counters_by_stage[stage]
            )
        aggregation = result.aggregation_totals()
        points.append(
            ScalabilityPoint(
                n_subscribers=count,
                max_lc_by_stage=max_lc,
                centralized_lc=float(result.total_events) * count,
                subscriber_mr=result.subscriber_average_mr(),
                filters_by_stage=result.filters_per_stage(),
                req_inserts=aggregation["req_inserts_sent"],
                suppressed=aggregation["propagations_suppressed"],
            )
        )
    return points


def render(points: List[ScalabilityPoint]) -> str:
    stages = sorted(points[0].max_lc_by_stage) if points else []
    headers = (
        ["Subscribers"]
        + [f"Max LC stage {s}" for s in stages]
        + ["Centralized LC", "Subscriber MR"]
        + [f"Filters stage {s}" for s in stages]
        + ["ReqInsert", "Suppressed"]
    )
    rows = []
    for point in points:
        rows.append(
            [point.n_subscribers]
            + [point.max_lc_by_stage[s] for s in stages]
            + [point.centralized_lc, point.subscriber_mr]
            + [point.filters_by_stage.get(s, 0) for s in stages]
            + [point.req_inserts, point.suppressed]
        )
    return render_table(headers, rows)


def growth_factor(points: List[ScalabilityPoint]) -> float:
    """Peak-broker-LC growth over the sweep, for the shape assertion."""
    if len(points) < 2:
        raise ValueError("need at least two sweep points")
    return points[-1].max_broker_lc() / max(1.0, points[0].max_broker_lc())


def run(base: Optional[ScenarioConfig] = None) -> List[ScalabilityPoint]:
    points = run_scalability(base)
    print(render(points))
    subscriber_growth = points[-1].n_subscribers / points[0].n_subscribers
    print(
        f"\nsubscribers grew {subscriber_growth:.0f}x; busiest broker LC grew "
        f"{growth_factor(points):.1f}x; centralized LC grew "
        f"{points[-1].centralized_lc / points[0].centralized_lc:.0f}x"
    )
    return points


if __name__ == "__main__":  # pragma: no cover - manual entry point
    run()
