"""Tests for the architecture comparison and the ablations."""

import dataclasses

import pytest

from repro.experiments import ablations, comparison
from repro.experiments.common import ScenarioConfig

QUICK = ScenarioConfig(stage_sizes=(8, 2, 1), n_subscribers=60, n_events=100)


@pytest.fixture(scope="module")
def results():
    return comparison.run_comparison(QUICK)


class TestComparison:
    def test_all_architectures_present(self, results):
        assert set(results) == set(comparison.ARCHITECTURES)

    def test_identical_deliveries_everywhere(self, results):
        """End-to-end soundness: weakening never changes what subscribers
        get (Propositions 1 and 2)."""
        reference = results["centralized"].deliveries
        for name, result in results.items():
            assert result.deliveries == reference, name

    def test_centralized_rlc_is_one(self, results):
        assert results["centralized"].max_broker_rlc == pytest.approx(1.0)

    def test_multistage_beats_centralized_per_node(self, results):
        assert results["multistage"].max_broker_rlc < 0.5

    def test_broadcast_floods_the_edges(self, results):
        assert results["broadcast"].edge_avg_received == QUICK.n_events
        assert results["multistage"].edge_avg_received < QUICK.n_events / 2

    def test_topic_based_equals_broadcast_for_single_class(self, results):
        assert (
            results["topicbased"].edge_avg_received
            == results["broadcast"].edge_avg_received
        )

    def test_edge_mr_ordering(self, results):
        """Multi-stage edges see mostly-relevant traffic; broadcast edges
        see the raw stream."""
        assert results["multistage"].edge_avg_mr > results["broadcast"].edge_avg_mr

    @pytest.mark.parametrize("engine", ["index", "table"])
    def test_the_engine_changes_no_delivery_and_no_rlc(self, results, engine):
        """``config.engine`` reaches the centralized server as well as
        the brokers; whichever it is, the table is the same."""
        other = comparison.run_comparison(
            dataclasses.replace(QUICK, engine=engine),
            architectures=("multistage", "centralized"),
        )
        assert other["centralized"].max_broker_rlc == pytest.approx(1.0)
        for name, result in other.items():
            assert result.deliveries == results[name].deliveries, name
            assert result.max_broker_rlc == results[name].max_broker_rlc, name
            assert result.total_messages == results[name].total_messages, name

    def test_render(self, results):
        text = comparison.render(results)
        assert "multistage" in text and "centralized" in text

    def test_architecture_subset(self):
        subset = comparison.run_comparison(
            QUICK, architectures=("centralized", "broadcast")
        )
        assert set(subset) == {"centralized", "broadcast"}

    def test_unknown_architecture_rejected(self):
        with pytest.raises(ValueError):
            comparison.run_comparison(QUICK, architectures=("quantum",))


class TestPlacementAblation:
    @pytest.fixture(scope="class")
    def ablation(self):
        # A similarity-heavy workload: few records, many subscribers.
        config = ScenarioConfig(
            stage_sizes=(8, 2, 1), n_subscribers=80, n_events=100,
            n_records=60, n_authors=30,
        )
        return ablations.run_placement_ablation(config)

    def test_similarity_needs_no_more_upper_filters(self, ablation):
        similarity, random_placement = ablation.upper_stage_filters()
        assert similarity <= random_placement

    def test_similarity_forwards_no_more_copies(self, ablation):
        similarity, random_placement = ablation.forwarded_messages()
        assert similarity <= random_placement

    def test_deliveries_unaffected_by_placement(self, ablation):
        assert (
            ablation.similarity.subscriber_average_mr()
            == pytest.approx(ablation.random.subscriber_average_mr(), abs=0.15)
        )


class TestWildcardAblation:
    def test_routed_reduces_stage1_load(self):
        config = ScenarioConfig(
            stage_sizes=(8, 2, 1), n_subscribers=60, n_events=120,
        )
        ablation = ablations.run_wildcard_ablation(config, wildcard_rate=0.4)
        routed, naive = ablation.total_stage1_load()
        assert routed < naive


class TestDepthAblation:
    def test_deeper_hierarchies_bound_per_node_rlc(self):
        points = ablations.run_depth_ablation(
            ScenarioConfig(stage_sizes=(8, 2, 1), n_subscribers=60, n_events=80),
            depth_configs=((1,), (4, 1), (16, 4, 1)),
        )
        assert len(points) == 3
        assert points[-1].max_node_rlc < points[0].max_node_rlc
        # More stages, more hops, more messages.
        assert points[-1].messages > points[0].messages

    def test_render_depth(self):
        points = ablations.run_depth_ablation(
            ScenarioConfig(stage_sizes=(4, 1), n_subscribers=30, n_events=40),
            depth_configs=((1,), (4, 1)),
        )
        text = ablations.render_depth(points)
        assert "Max node RLC" in text


class TestCompactionAblation:
    def test_compaction_shrinks_upper_tables_without_changing_mr_much(self):
        config = ScenarioConfig(
            stage_sizes=(6, 2, 1), n_subscribers=60, n_events=80,
            n_records=40, n_authors=20,
        )
        ablation = ablations.run_compaction_ablation(config)
        plain_mr, compacted_mr = ablation.subscriber_mr()
        # Merging only weakens broker filters; end deliveries are exact
        # either way, and MR can only drop (more traffic reaches edges).
        assert compacted_mr <= plain_mr + 1e-9


class TestMulticlassComparison:
    @pytest.fixture(scope="class")
    def multiclass_results(self):
        from repro.experiments.multiclass import MulticlassConfig, run_multiclass

        return run_multiclass(
            MulticlassConfig(stage_sizes=(8, 2, 1), n_subscribers=80, n_events=150)
        )

    def test_identical_deliveries(self, multiclass_results):
        reference = multiclass_results["multistage"].deliveries
        for name, result in multiclass_results.items():
            assert result.deliveries == reference, name

    def test_selectivity_ordering(self, multiclass_results):
        """multistage < topicbased < broadcast in edge load: topics
        recover class selectivity, content filters recover the rest."""
        multistage = multiclass_results["multistage"].edge_avg_received
        topic = multiclass_results["topicbased"].edge_avg_received
        broadcast = multiclass_results["broadcast"].edge_avg_received
        assert multistage < topic < broadcast

    def test_mr_ordering(self, multiclass_results):
        assert (
            multiclass_results["multistage"].edge_avg_mr
            > multiclass_results["topicbased"].edge_avg_mr
            > multiclass_results["broadcast"].edge_avg_mr
        )
