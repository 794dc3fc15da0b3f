"""Cheapest-path labels and cheapest-path subnetworks.

Arc costs may be negative as long as the network is conservative, so
labels come from the label-correcting routine :func:`qmct._kernel.labels`
rather than from Dijkstra.  Costs stay exact Fractions.  A reachable
negative cycle, which validation excludes, raises
:class:`~qmct.errors.InternalCheckError`.  Unreachable nodes are
represented by absence from the label map, never by a sentinel value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from . import _kernel
from .errors import NoPathError
from .network import Network, NodeId

FROM_SOURCE = "from-source"
TO_SINK = "to-sink"


@dataclass(frozen=True)
class CostLabels:
    """Cheapest-path costs from (or to) a fixed endpoint.

    ``values`` holds one entry per reachable node; nodes absent from the
    map are unreachable.  ``direction`` says whether costs are measured
    from the origin outwards or towards the target.
    """

    origin: NodeId
    direction: str
    values: Mapping[NodeId, Fraction]

    def __contains__(self, node: NodeId) -> bool:
        return node in self.values

    def __getitem__(self, node: NodeId) -> Fraction:
        return self.values[node]


def _graph(network: Network, reverse: bool = False) -> _kernel.Residual:
    idx = network.node_index
    arcs = [(idx(a.tail), idx(a.head), a.cost) for a in network.arcs]
    if reverse:
        arcs = [(head, tail, cost) for tail, head, cost in arcs]
    return _kernel.arc_graph(len(network.nodes), arcs)


def _cost_labels(network: Network, origin: NodeId, direction: str) -> CostLabels:
    g = _graph(network, reverse=direction == TO_SINK)
    dist = _kernel.labels(g, network.node_index(origin))
    values = {v: d for v, d in zip(network.nodes, dist) if d is not None}
    return CostLabels(origin, direction, values)


def cheapest_from(network: Network, source: NodeId) -> CostLabels:
    """Cost of a cheapest path from ``source`` to every reachable node."""
    return _cost_labels(network, source, FROM_SOURCE)


def cheapest_to(network: Network, sink: NodeId) -> CostLabels:
    """Cost of a cheapest path from every node to ``sink`` (reversed labeling)."""
    return _cost_labels(network, sink, TO_SINK)


def subnetwork_arcs(
    network: Network,
    forward: CostLabels,
    backward: CostLabels,
    optimum: Fraction,
) -> frozenset[int]:
    """Arcs whose forward label + cost + backward label meets ``optimum`` exactly."""
    selected = []
    for i, arc in enumerate(network.arcs):
        if arc.tail in forward and arc.head in backward:
            if forward[arc.tail] + arc.cost + backward[arc.head] == optimum:
                selected.append(i)
    return frozenset(selected)


def cheapest_paths_subnetwork(network: Network, source: NodeId, sink: NodeId) -> frozenset[int]:
    """Indices of all arcs lying on at least one cheapest source-sink path."""
    forward = cheapest_from(network, source)
    if sink not in forward:
        raise NoPathError(f"no path from {source!r} to {sink!r}")
    backward = cheapest_to(network, sink)
    return subnetwork_arcs(network, forward, backward, forward[sink])


def pair_costs(network: Network) -> dict[tuple[NodeId, NodeId], Fraction]:
    """Cheapest-path cost for every source-sink pair connected by a path.

    Pairs with no connecting path are absent from the result.  One label
    graph serves every source.
    """
    g = _graph(network)
    idx = network.node_index
    sinks = network.sinks
    costs: dict[tuple[NodeId, NodeId], Fraction] = {}
    for s in network.sources:
        dist = _kernel.labels(g, idx(s))
        for t in sinks:
            d = dist[idx(t)]
            if d is not None:
                costs[(s, t)] = d
    return costs
