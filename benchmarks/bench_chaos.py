"""Acceptance gate: fault tolerance of the control plane (§4.3).

One seeded chaos schedule — 10% per-link loss, 5% duplication, latency
jitter, and a stage-2 broker crash/restart in the middle — must not cost
a single delivery of any event published outside the fault window, must
never deliver twice, and must leave the covering invariant holding at
every broker within a bounded convergence time after heal.  Several
seeds guard against a lucky schedule.
"""

import time

from repro.experiments.chaos import ChaosConfig, render, run_chaos
from repro.experiments.scenario import check

SEEDS = (7, 11, 23)


def run_suite(seeds=SEEDS):
    results = []
    for seed in seeds:
        results.append(run_chaos(ChaosConfig(seed=seed)))
    return results


def test_chaos_gate(report):
    """Gate: exactly-once outside faults + bounded reconvergence."""
    start = time.perf_counter()
    results = run_suite()
    elapsed = time.perf_counter() - start

    report()
    report(f"=== Chaos gate ({len(results)} seeds, {elapsed:.1f} s wall) ===")
    for result in results:
        config = result.config
        report()
        report(render(result))

        # Every event published outside the fault window reaches every
        # matching subscriber exactly once.
        assert result.pre_ratio == 1.0, (
            f"seed {config.seed}: pre-fault delivery ratio "
            f"{result.pre_ratio} != 1.0"
        )
        assert result.post_ratio == 1.0, (
            f"seed {config.seed}: post-heal delivery ratio "
            f"{result.post_ratio} != 1.0"
        )
        assert result.exactly_once, (
            f"seed {config.seed}: duplicate deliveries "
            f"(pre max {result.pre_max_copies}, post max "
            f"{result.post_max_copies})"
        )
        # The harness's one check: exactly-once against the oracle for
        # every event it judged, the covering invariant everywhere after
        # convergence, every placing broker's index equal to its table,
        # no credited link out of balance, and the crashed broker
        # holding nothing a newly built one would not while it was down.
        # An exception out of a receive has already failed the run.
        found = check(result.scenario)
        assert found == [], f"seed {config.seed}: " + "; ".join(found[:5])
        # Convergence is bounded (well under a lease expiry, 3xTTL).
        assert result.convergence_time <= config.ttl, (
            f"seed {config.seed}: convergence took "
            f"{result.convergence_time}s (> TTL {config.ttl}s)"
        )

        # The schedule actually bit: the victim was seen down, messages
        # were dropped on the wire and the reliable channel had to
        # retransmit.
        assert result.soft_state_violations == [], (
            f"seed {config.seed}: the crashed broker was never seen down"
        )
        assert result.dropped_messages > 0, f"seed {config.seed}: no drops"
        assert result.control_retransmits > 0, (
            f"seed {config.seed}: faults never exercised retransmission"
        )
