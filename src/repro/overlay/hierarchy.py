"""Hierarchy construction: the N-stage broker tree of Figure 4.

The paper's simulation uses one stage-3 root, 10 stage-2 nodes, and 100
stage-1 nodes; :func:`build_hierarchy` generalizes to any per-stage node
counts, distributing children round-robin so the tree stays balanced.
Node names follow the paper's ``N<stage>.<index>`` convention.
"""

from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.obs.tracing import EventTracer
from repro.overlay.config import BrokerConfig
from repro.overlay.node import BrokerNode
from repro.runtime.base import Executor, Transport
from repro.sim.rng import RngRegistry


class Hierarchy:
    """A built broker tree plus lookup helpers."""

    def __init__(self, nodes_by_stage: Dict[int, List[BrokerNode]]):
        self.nodes_by_stage = nodes_by_stage
        self.stages = sorted(nodes_by_stage, reverse=True)
        top = self.stages[0]
        if len(nodes_by_stage[top]) != 1:
            raise ValueError(
                f"the top stage must hold exactly one root node, got "
                f"{len(nodes_by_stage[top])}"
            )
        self.root = nodes_by_stage[top][0]

    @property
    def top_stage(self) -> int:
        return self.stages[0]

    def nodes(self, stage: Optional[int] = None) -> List[BrokerNode]:
        """All nodes, or the nodes of one stage (highest stage first)."""
        if stage is not None:
            return list(self.nodes_by_stage.get(stage, []))
        result: List[BrokerNode] = []
        for s in self.stages:
            result.extend(self.nodes_by_stage[s])
        return result

    def stage1_nodes(self) -> List[BrokerNode]:
        return self.nodes(1)

    def start_maintenance(self) -> None:
        for node in self.nodes():
            node.start_maintenance()

    def stop_maintenance(self) -> None:
        for node in self.nodes():
            node.stop_maintenance()

    def __repr__(self) -> str:
        shape = {s: len(ns) for s, ns in sorted(self.nodes_by_stage.items())}
        return f"Hierarchy({shape})"


def build_tree(
    stage_sizes: Sequence[int],
    member: Callable[[str, int], Any],
    connect: Callable[[Any, Any], None],
) -> Dict[int, List[Any]]:
    """The tree shape, in one place: names, parents, wiring order.

    ``stage_sizes[i]`` is the number of nodes at stage ``i + 1``; the last
    entry must be 1 (the root).  Node ``i`` of stage ``s`` is
    ``member(f"N{s}.{i + 1}", s)``; child ``k`` at stage ``s`` hangs under
    parent ``k % len(stage s+1)`` (``parent.attach_child(child)`` then
    ``connect(parent, child)``).  The simulator builder, the
    multiprocess driver and every worker all build through here, so
    each derives the identical topology — child order included, which
    placement round-robins over — independently.
    """
    if not stage_sizes:
        raise ValueError("need at least one stage of brokers")
    if stage_sizes[-1] != 1:
        raise ValueError(f"the top stage must have exactly 1 node, got {stage_sizes[-1]}")
    if any(size < 1 for size in stage_sizes):
        raise ValueError(f"every stage needs at least one node: {list(stage_sizes)}")
    nodes_by_stage: Dict[int, List[Any]] = {
        stage: [member(f"N{stage}.{i + 1}", stage) for i in range(size)]
        for stage, size in enumerate(stage_sizes, start=1)
    }
    for stage in range(1, len(stage_sizes)):
        parents = nodes_by_stage[stage + 1]
        for position, child in enumerate(nodes_by_stage[stage]):
            parent = parents[position % len(parents)]
            parent.attach_child(child)
            connect(parent, child)
    return nodes_by_stage


def build_hierarchy(
    sim: Executor,
    network: Transport,
    stage_sizes: Sequence[int],
    config: Optional[BrokerConfig] = None,
    rngs: Optional[RngRegistry] = None,
    link_latency: float = 0.001,
    tracer: Optional[EventTracer] = None,
) -> Hierarchy:
    """Build a balanced tree of real brokers, all sharing ``config``.

    The paper's configuration is ``stage_sizes=[100, 10, 1]``; see
    :func:`build_tree` for the shape.
    """
    rngs = rngs or RngRegistry(0)
    return Hierarchy(
        build_tree(
            stage_sizes,
            lambda name, stage: BrokerNode(
                sim,
                network,
                name,
                stage,
                config,
                rng=rngs.stream(f"node/{name}"),
                tracer=tracer,
            ),
            lambda parent, child: network.connect(
                parent, child, latency=link_latency
            ),
        )
    )
