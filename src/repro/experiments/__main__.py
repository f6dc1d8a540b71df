"""Command-line entry point: regenerate the paper's evaluation.

Usage::

    python -m repro.experiments [--quick] [rlc] [figure7] [comparison]
                                [ablations] [scalability] [multiclass]
                                [chaos] [tracing] [overload] [replay]
                                [flows] [--event=PUB/SEQ]

With no experiment names, everything runs.  ``--quick`` swaps the
paper-scale configurations for CI-sized ones (seconds instead of tens of
seconds).  ``tracing`` runs the chaos sweep with the observability layer
on and prints the trace report; ``--event=chaos-feed/12`` additionally
reconstructs that event's publisher-to-subscriber path.  ``overload``
sweeps offered load past saturation with and without the flow-control
subsystem (credits, bounded queues, shedding).  ``replay`` runs the
durable-log sweep: catch-up subscribers, crash-recovery replay, and the
exactly-once audit.  ``flows`` runs the information-flow sweep: the
telemetry rollup flow vs its flow-free twin (delivered-event and
downlink-byte reduction, raw-path byte-identity) plus the subtree-crash
scenario (dropped windows, re-install, excused audit).
"""

import sys

from repro.experiments import (
    ablations,
    chaos,
    comparison,
    figure7,
    flows,
    overload,
    replay,
    rlc_table,
    scalability,
)
from repro.experiments.multiclass import MulticlassConfig
from repro.experiments.multiclass import run as run_multiclass
from repro.experiments.common import ScenarioConfig

QUICK = ScenarioConfig(stage_sizes=(20, 5, 1), n_subscribers=200, n_events=200)
QUICK_MULTICLASS = MulticlassConfig(stage_sizes=(10, 3, 1), n_subscribers=100, n_events=200)

#: Name -> (banner, runner of (quick, event_id)), in the order they run.
EXPERIMENTS = {
    "rlc": ("Paper §5.3: RLC table", lambda q, e: rlc_table.run(QUICK if q else None)),
    "figure7": (
        "Paper Figure 7: matching rate per node",
        lambda q, e: figure7.run(QUICK if q else None),
    ),
    "comparison": (
        "Architecture comparison (§2.1)",
        lambda q, e: comparison.run(QUICK if q else None),
    ),
    "ablations": (
        "Ablations (§3.2, §4.2, §4.4)",
        lambda q, e: ablations.run(QUICK if q else None),
    ),
    "scalability": (
        "Scalability sweep (§5.3 claim)",
        lambda q, e: scalability.run(QUICK if q else None),
    ),
    "multiclass": (
        "Multi-class comparison (§3.4 degeneration)",
        lambda q, e: run_multiclass(QUICK_MULTICLASS if q else None),
    ),
    "chaos": ("Chaos sweep: faults, crash/restart, convergence", lambda q, e: chaos.run()),
    "tracing": (
        "Observability: causal tracing + per-stage sampling",
        lambda q, e: chaos.run_traced(event_id=e),
    ),
    "overload": (
        "Overload sweep: flow control, backpressure, shedding",
        lambda q, e: overload.run(),
    ),
    "replay": (
        "Replay sweep: durable log, catch-up, crash recovery, audit",
        lambda q, e: replay.run(),
    ),
    "flows": (
        "Information flows: rollup vs flow-free twin, subtree crash",
        lambda q, e: flows.run(),
    ),
}


def main(argv) -> int:
    args = [a for a in argv if not a.startswith("-")]
    quick = "--quick" in argv
    event_id = None
    for arg in argv:
        if arg.startswith("--event="):
            publisher, _, sequence = arg[len("--event="):].rpartition("/")
            if not publisher or not sequence.isdigit():
                print(f"bad --event (want PUBLISHER/SEQ): {arg}", file=sys.stderr)
                return 2
            event_id = (publisher, int(sequence))
    wanted = set(args) or set(EXPERIMENTS)
    unknown = wanted - set(EXPERIMENTS)
    if unknown:
        print(f"unknown experiments: {sorted(unknown)}", file=sys.stderr)
        print(__doc__, file=sys.stderr)
        return 2
    for name, (banner, runner) in EXPERIMENTS.items():
        if name in wanted:
            print("=" * 72)
            print(banner)
            print("=" * 72)
            runner(quick, event_id)
            print()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
