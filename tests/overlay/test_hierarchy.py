"""Unit tests for hierarchy construction."""

import pytest

from repro.overlay.hierarchy import Hierarchy, build_hierarchy
from repro.sim.kernel import Simulator
from repro.sim.network import Network
from repro.sim.rng import RngRegistry


def build(stage_sizes, **kwargs):
    sim = Simulator()
    network = Network(sim, default_latency=0.001)
    return build_hierarchy(
        sim, network, stage_sizes, rngs=RngRegistry(0), **kwargs
    )


def test_paper_configuration_shape():
    hierarchy = build([100, 10, 1])
    assert len(hierarchy.nodes(1)) == 100
    assert len(hierarchy.nodes(2)) == 10
    assert len(hierarchy.nodes(3)) == 1
    assert hierarchy.top_stage == 3
    assert hierarchy.root.stage == 3


def test_names_follow_paper_convention():
    hierarchy = build([3, 1])
    assert [n.name for n in hierarchy.nodes(1)] == ["N1.1", "N1.2", "N1.3"]
    assert hierarchy.root.name == "N2.1"


def test_round_robin_balance():
    hierarchy = build([10, 2, 1])
    parents = [child.parent for child in hierarchy.nodes(1)]
    counts = {p.name: parents.count(p) for p in hierarchy.nodes(2)}
    assert set(counts.values()) == {5}


def test_parent_child_links_consistent():
    hierarchy = build([6, 3, 1])
    for stage in (1, 2):
        for node in hierarchy.nodes(stage):
            assert node in node.parent.broker_children
            assert node.parent.stage == node.stage + 1
    assert hierarchy.root.parent is None


def test_nodes_without_stage_returns_all_top_down():
    hierarchy = build([4, 2, 1])
    names = [n.name for n in hierarchy.nodes()]
    assert names[0] == "N3.1"
    assert len(names) == 7


def test_single_stage_hierarchy():
    hierarchy = build([1])
    assert hierarchy.root.stage == 1
    assert hierarchy.root.broker_children == []


def test_top_stage_must_be_single_node():
    with pytest.raises(ValueError):
        build([4, 2])
    with pytest.raises(ValueError):
        Hierarchy({1: []})


def test_empty_and_invalid_sizes_rejected():
    with pytest.raises(ValueError):
        build([])
    with pytest.raises(ValueError):
        build([0, 1])


def test_network_links_created():
    sim = Simulator()
    network = Network(sim, default_latency=None)
    hierarchy = build_hierarchy(sim, network, [4, 1], rngs=RngRegistry(0))
    for child in hierarchy.nodes(1):
        assert network.link(child, hierarchy.root) is not None
        assert network.link(hierarchy.root, child) is not None


def test_maintenance_start_stop():
    hierarchy = build([2, 1])
    hierarchy.start_maintenance()
    assert all(n.armed_tasks() == ("renew", "purge") for n in hierarchy.nodes())
    hierarchy.stop_maintenance()
    assert all(n.armed_tasks() == () for n in hierarchy.nodes())


def test_attach_child_stage_mismatch_rejected():
    hierarchy = build([2, 1])
    stage1 = hierarchy.nodes(1)[0]
    with pytest.raises(ValueError):
        stage1.attach_child(hierarchy.root)


def test_repr_shows_shape():
    assert "{1: 4, 2: 2, 3: 1}" in repr(build([4, 2, 1]))
