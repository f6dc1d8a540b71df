"""High-fan-in telemetry workload: many sensors, few rollup consumers.

The first workload class built for the in-broker information flows
(DESIGN §15): ``sensors_per_region`` sensors per region each emit a
random-walk :class:`Telemetry` reading per round, and the canonical
consumer is *not* interested in raw readings at all — it wants a
per-region average over a time window.  Republishing one
:data:`ROLLUP_EVENT_CLASS` event per region per window instead of every
raw reading is the bandwidth trade the flows experiment measures
(``experiments/flows.py``): at 10× fan-in the rollup cuts delivered
events and downlink bytes ≥5×.
"""

import random
from typing import Dict, List, Optional, Tuple

from repro.core.advertisement import Advertisement
from repro.core.stages import AttributeStageAssociation
from repro.events.base import CLASS_ATTRIBUTE
from repro.filters.constraints import AttributeConstraint
from repro.filters.filter import Filter
from repro.filters.operators import EQ
from repro.streams.spec import Aggregate, FlowSpec, WindowSpec

#: Generality order: class, region (the routing key), sensor, reading.
TELEMETRY_SCHEMA: Tuple[str, ...] = (CLASS_ATTRIBUTE, "region", "sensor", "reading")

TELEMETRY_EVENT_CLASS = "Telemetry"
ROLLUP_EVENT_CLASS = "TelemetryRollup"


class Telemetry:
    """One sensor reading (accessor convention, like :class:`Stock`)."""

    def __init__(self, region: str, sensor: str, reading: float):
        self._region = region
        self._sensor = sensor
        self._reading = reading

    def get_region(self) -> str:
        return self._region

    def get_sensor(self) -> str:
        return self._sensor

    def get_reading(self) -> float:
        return self._reading

    def __repr__(self) -> str:
        return f"Telemetry({self._region!r}, {self._sensor!r}, {self._reading!r})"


class TelemetryWorkload:
    """Per-sensor random-walk readings over a fixed region/sensor grid."""

    def __init__(
        self,
        rng: random.Random,
        n_regions: int = 4,
        sensors_per_region: int = 10,
        base_reading: float = 20.0,
        volatility: float = 0.5,
    ):
        if n_regions < 1 or sensors_per_region < 1:
            raise ValueError("need at least one region and one sensor")
        self.regions: List[str] = [f"r{i}" for i in range(n_regions)]
        self.sensors: Dict[str, List[str]] = {
            region: [f"{region}-s{j:02d}" for j in range(sensors_per_region)]
            for region in self.regions
        }
        self.volatility = volatility
        self._readings: Dict[str, float] = {
            sensor: base_reading
            for sensors in self.sensors.values()
            for sensor in sensors
        }
        self._rng = rng

    @property
    def schema(self) -> Tuple[str, ...]:
        return TELEMETRY_SCHEMA

    def association(self, stages: int = 3) -> AttributeStageAssociation:
        return AttributeStageAssociation.uniform(TELEMETRY_SCHEMA, stages)

    def advertisement(self, stages: int = 3) -> Advertisement:
        return Advertisement(TELEMETRY_EVENT_CLASS, self.association(stages))

    # -- event stream ------------------------------------------------

    def next_reading(self, region: str, sensor: str) -> Telemetry:
        """Advance one sensor's random walk and emit its reading."""
        value = self._readings[sensor] + self._rng.uniform(
            -self.volatility, self.volatility
        )
        self._readings[sensor] = value
        return Telemetry(region, sensor, round(value, 3))

    def readings_round(self) -> List[Telemetry]:
        """One reading from every sensor, in grid order (one fan-in unit)."""
        return [
            self.next_reading(region, sensor)
            for region in self.regions
            for sensor in self.sensors[region]
        ]

    # -- subscriptions and flows -------------------------------------

    def archive_subscription(self) -> Filter:
        """Every raw reading (class-only filter).

        An archiver holding this in a subtree pulls the full raw stream
        through that subtree's brokers — which is how a flow hosted
        *below* the root gets its input: flows tap events transiting
        their broker, they do not add routing state of their own.
        """
        return Filter(
            [AttributeConstraint(CLASS_ATTRIBUTE, EQ, TELEMETRY_EVENT_CLASS)]
        )

    def raw_subscription(self, region: str) -> Filter:
        """All raw readings of one region (the flow-free dashboard)."""
        return Filter(
            [
                AttributeConstraint(CLASS_ATTRIBUTE, EQ, TELEMETRY_EVENT_CLASS),
                AttributeConstraint("region", EQ, region),
            ]
        )

    def sensor_subscription(self, region: str, sensor_index: int = 0) -> Filter:
        """One sensor's raw feed (the raw-path witness subscription)."""
        sensor = self.sensors[region][sensor_index]
        return Filter(
            [
                AttributeConstraint(CLASS_ATTRIBUTE, EQ, TELEMETRY_EVENT_CLASS),
                AttributeConstraint("region", EQ, region),
                AttributeConstraint("sensor", EQ, sensor),
            ]
        )

    def rollup_subscription(self, region: str) -> Filter:
        """One region's derived rollup feed (the flow-backed dashboard)."""
        return Filter(
            [
                AttributeConstraint(CLASS_ATTRIBUTE, EQ, ROLLUP_EVENT_CLASS),
                AttributeConstraint("region", EQ, region),
            ]
        )

    def rollup_flow(
        self,
        window: float = 1.0,
        name: str = "region-rollup",
        broker: Optional[str] = None,
    ) -> FlowSpec:
        """The canonical flow: per-region tumbling-window average."""
        return FlowSpec(
            name=name,
            input_filter=Filter(
                [AttributeConstraint(CLASS_ATTRIBUTE, EQ, TELEMETRY_EVENT_CLASS)]
            ),
            output_class=ROLLUP_EVENT_CLASS,
            operator=WindowSpec(
                kind="tumbling",
                mode="time",
                size=window,
                group_by=("region",),
                aggregates=(Aggregate("reading", "avg", "avg_reading"),),
            ),
            broker=broker,
        )
